"""Per-layer numbers for the traced run, read from the stdlib profiler.

The layers are the modules of the gaborbox package.  Nothing in the package is
edited: spans and counts are taken from cProfile's raw entries, keyed by the
live code objects of the named functions (so they survive line moves), and two
taps wrap public functions from the outside for numbers the profiler cannot
see (pi refinements, and the residue count of each grid model built).

Every profile is reduced to a "raw" dict of sums so that the profiles of
several processes (the cli workload's children) can be added before
`finalize` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

MODULES = ("exactnum", "lattice", "classifier", "dynsys", "oracle", "sampling", "cli")
SELF_TIME_MODULES = ("exactnum", "lattice", "classifier", "dynsys", "oracle")

# metric -> functions whose cumulative time is summed
SPANS = {
    "lattice.normalize.span_s": ["lattice:normalize"],
    "lattice.region_tag.span_s": ["lattice:region_tag"],
    "classifier.classify.span_s": ["classifier:classify"],
    "classifier.classify_off_grid.span_s": ["classifier:classify_off_grid"],
    "classifier.cond_XII.span_s": ["classifier:cond_XII"],
    "classifier.cond_XIII.span_s": ["classifier:cond_XIII"],
    "dynsys.compute_S.span_s": ["dynsys:compute_S"],
    "dynsys.measure.span_s": ["dynsys:compute_D", "dynsys:measure_identity"],
    "oracle.triple_pipeline_check.span_s": ["oracle:triple_pipeline_check"],
    "oracle.grid_frame_decision.span_s": ["oracle:grid_frame_decision"],
    "oracle.numeric_frame_bounds.span_s": ["oracle:numeric_frame_bounds"],
    "sampling.sampling_stable.span_s": ["sampling:sampling_stable"],
    "cli.main.span_s": ["cli:main"],
    "cli.parse_number.span_s": ["cli:parse_number"],
    "cli.write.span_s": ["cli:_write_ppm", "cli:_write_csv"],
}

# metric -> functions whose call counts are summed
CALL_COUNTS = {
    "exactnum.values_built": ["exactnum:ExactReal.__init__"],
    "lattice.set_ops": ["lattice:PeriodicSet.make"],
}

EXACT_OPS = [
    "exactnum:ExactReal.__add__",
    "exactnum:ExactReal.__sub__",
    "exactnum:ExactReal.__rsub__",
    "exactnum:ExactReal.__mul__",
    "exactnum:ExactReal.__truediv__",
    "exactnum:ExactReal.__neg__",
    "exactnum:ExactReal.ratio",
    "exactnum:ExactReal.sign",
    "exactnum:floor_div",
    "exactnum:mod",
]

# the XII certificate search: exact ops issued from cond_XII and the
# classifier functions it calls
SEARCH_ROOT = "classifier:cond_XII"

ENGINE_CALLS = ["lattice:normalize", "dynsys:compute_S"]
CLI_MAIN = "cli:main"

TAP_COUNTS = ("exactnum.pi_refines", "oracle.grid_residues")


def _resolve(name: str):
    """'module:Qual.name' -> code object of that function in gaborbox, or None."""
    import importlib

    mod_name, qual = name.split(":")
    obj = importlib.import_module(f"gaborbox.{mod_name}")
    for part in qual.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    obj = getattr(obj, "__func__", obj)
    return getattr(obj, "__code__", None)


def _package_files():
    import gaborbox

    pkg = Path(gaborbox.__file__).resolve().parent
    files = {}
    for m in MODULES:
        path = pkg / f"{m}.py"
        files[str(path)] = m
        files[os.path.realpath(path)] = m
    return files


class Taps:
    """Counters that wrap public functions for the length of a traced region."""

    def __init__(self):
        self.counts = {k: 0 for k in TAP_COUNTS}
        self._undo = []

    def install(self):
        from gaborbox import exactnum, oracle

        real_refine = exactnum.NumberContext.refine
        real_build = oracle.build_grid_model
        counts = self.counts

        def refine(ctx):
            if ctx.kind == "pi":
                counts["exactnum.pi_refines"] += 1
            return real_refine(ctx)

        def build_grid_model(nt):
            gm = real_build(nt)
            counts["oracle.grid_residues"] += gm.p
            return gm

        exactnum.NumberContext.refine = refine
        oracle.build_grid_model = build_grid_model
        self._undo = [
            (exactnum.NumberContext, "refine", real_refine),
            (oracle, "build_grid_model", real_build),
        ]

    def remove(self):
        for owner, attr, value in self._undo:
            setattr(owner, attr, value)
        self._undo = []


def reduce_profile(prof) -> dict:
    """Sums from one cProfile.Profile, ready to be added to other processes'."""
    entries = prof.getstats()
    files = _package_files()

    def module_of(code):
        if isinstance(code, str):
            return None
        return files.get(code.co_filename)

    by_code = {e.code: e for e in entries}
    callers = defaultdict(list)  # callee -> [(caller, self time on edge, cumulative on edge)]
    for e in entries:
        for sub in e.calls or ():
            callers[sub.code].append((e.code, sub.inlinetime, sub.totaltime))

    # Code outside the package (fractions, builtins, dataclass-generated
    # __init__) is charged to the package module that called it, following
    # chains of outside callers in proportion to their cumulative time.
    shares_cache = {}

    def shares(code, active):
        if code in shares_cache:
            return shares_cache[code]
        if code in active:
            return {}
        active.add(code)
        acc = defaultdict(float)
        total = 0.0
        for caller, _, cum in callers.get(code, ()):
            total += cum
            m = module_of(caller)
            if m is not None:
                acc[m] += cum
            else:
                for mm, w in shares(caller, active).items():
                    acc[mm] += cum * w
        active.discard(code)
        out = {m: v / total for m, v in acc.items()} if total > 0 else {}
        shares_cache[code] = out
        return out

    self_s = defaultdict(float)
    for e in entries:
        m = module_of(e.code)
        if m is not None:
            self_s[m] += e.inlinetime
            continue
        for caller, own, _ in callers.get(e.code, ()):
            mc = module_of(caller)
            if mc is not None:
                self_s[mc] += own
            else:
                for mm, w in shares(caller, set()).items():
                    self_s[mm] += own * w

    def codes(names):
        out = []
        for n in names:
            c = _resolve(n)
            if c is not None:
                out.append(c)
        return out

    def cum(names):
        return sum(by_code[c].totaltime for c in codes(names) if c in by_code)

    def calls(names):
        return sum(by_code[c].callcount for c in codes(names) if c in by_code)

    raw = {"self": {m: self_s.get(m, 0.0) for m in MODULES}}
    raw["span"] = {metric: cum(names) for metric, names in SPANS.items()}
    raw["count"] = {metric: calls(names) for metric, names in CALL_COUNTS.items()}
    raw["count"]["exactnum.ops"] = calls(EXACT_OPS)

    ops = set(codes(EXACT_OPS))
    root = _resolve(SEARCH_ROOT)
    search_ops = 0
    if root is not None and root in by_code:
        seen, todo = {root}, [root]
        while todo:
            e = by_code.get(todo.pop())
            for sub in (e.calls or ()) if e is not None else ():
                if sub.code in ops:
                    search_ops += sub.callcount
                elif module_of(sub.code) == "classifier" and sub.code not in seen:
                    seen.add(sub.code)
                    todo.append(sub.code)
    raw["count"]["classifier.search_exact_ops"] = search_ops
    raw["count"]["engine_calls"] = calls(ENGINE_CALLS)
    raw["count"]["cli_main_calls"] = calls([CLI_MAIN])
    return raw


def add_raw(total: dict, raw: dict) -> dict:
    for group, values in raw.items():
        dst = total.setdefault(group, {})
        for k, v in values.items():
            dst[k] = dst.get(k, 0) + v
    return total


def finalize(timed: dict, counted: dict, extra: dict) -> dict:
    """Metric name -> (value, unit).

    timed: raw sums whose times are reported (traced pass plus probe);
    counted: raw sums whose counts are reported (traced pass only);
    extra: already-final numbers (taps, output counts, import time, overhead).
    """
    out = {}
    for m in SELF_TIME_MODULES:
        out[f"{m}.self_s"] = (timed["self"].get(m, 0.0), "s")
    for metric, value in timed["span"].items():
        out[metric] = (value, "s")
    c = counted["count"]
    for metric in ("exactnum.ops", "exactnum.values_built", "lattice.set_ops",
                   "classifier.search_exact_ops"):
        out[metric] = (c.get(metric, 0), "count")
    mains = c.get("cli_main_calls", 0)
    out["cli.engine_calls"] = (c.get("engine_calls", 0) / mains if mains else 0.0, "count")
    for metric, value in extra.items():
        out[metric] = value
    return out


def probe(out_dir: Path) -> None:
    """One small call of every named function, so that no span reads zero on a
    workload that never reaches that layer.  The same calls run in every
    traced run."""
    import gaborbox.cli as cli
    from gaborbox import normalize, rat
    from gaborbox.oracle import numeric_frame_bounds, triple_pipeline_check

    ppm = str(out_dir / f"probe-{os.getpid()}.ppm")
    csv = str(out_dir / f"probe-{os.getpid()}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["region-plot", "--qmax", "5", "--cmin", "2", "--cmax", "3",
                  "--step-c", "1/4", "--out", ppm, "--csv", csv])
        cli.main(["classify", "--json", "--context", "sqrt:2",
                  "--a", "1/2*sqrt(2)", "--b", "1", "--c", "7/2"])
        cli.main(["classify", "--json", "--a", "13/17", "--b", "1", "--c", "77/17"])
        cli.main(["sampling", "--a", "13/17", "--b", "1", "--c", "77/17"])
    nt = normalize(rat(Fraction(13, 17)), rat(1), rat(Fraction(77, 17)))
    triple_pipeline_check(nt)
    numeric_frame_bounds(nt, t_samples=1, half_width=4)
    for path in (ppm, csv):
        os.remove(path)

"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs closed-loop passes over
them (one client, one process), and checks every output against a reference
that does not share the route being timed.  Why each workload exists:

raster        region-plot through gaborbox.cli.main at b = 1.  Mostly cheap
              closed-form regions and snap-to-grid (XIV) cells, so exactnum,
              normalize and region_tag do the work; the certificate searches
              barely run.
agreement     oracle.triple_pipeline_check over a stratified draw of on-grid
              rational triples, with the numeric route on every tenth.  This is
              where the PeriodicSet algebra, dynsys propagation and the grid
              oracle show.
certificates  hard instances of the generic regions: a cond_XII ladder in
              three irrational contexts and cond_XIII rungs up to p = 797, each
              decided by classify and then compute_S in a fresh context.
cli           fresh `python -m gaborbox.cli` processes: interpreter start,
              import, argument parsing and the JSON payload path, which no
              other workload pays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from harness import Deadline, DeadlineExceeded, Record, run_items

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


class Workload:
    name = ""
    deadline_s = 10.0
    meter = None  # the run's SpeedMeter while passes are timed

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, hard_stop: float) -> list:
        """Decide every input once; one Record per decision."""
        raise NotImplementedError

    def after_pass(self, records: list) -> None:
        """Untimed bookkeeping after each pass."""

    def check(self, passes: list) -> list:
        """Untimed reference check of each pass's records; one failure string
        per failing decision."""
        raise NotImplementedError

    def output_counts(self, records: list) -> dict:
        return {"dynsys.chain_steps": 0, "dynsys.S_intervals": 0}

    def describe(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""


# ---------------------------------------------------------------------------
# raster
# ---------------------------------------------------------------------------


class Raster(Workload):
    """region-plot at q <= 20, c step 1/16, over a 6-wide c window whose
    offset (0, 1/16, 1/8 or 3/16) the seed picks: 128 x 95 cells.  Wider
    offsets change the cost of a pass by up to 13%, as the window slides over
    costlier cells."""

    name = "raster"
    deadline_s = 5.0  # per cell

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        import gaborbox.cli as cli

        self.cli = cli
        rng = random.Random(seed)
        self.qmax = 6 if smoke else 20
        width = 2 if smoke else 6
        self.cmin = F(rng.randrange(4), 16)
        self.cmax = self.cmin + width
        self.step = F(1, 16)
        stem = out_dir / f"raster-{os.getpid()}"
        self.ppm, self.csv = f"{stem}.ppm", f"{stem}.csv"
        self.argv = [
            "region-plot", "--qmax", str(self.qmax), "--cmin", str(self.cmin),
            "--cmax", str(self.cmax), "--step-c", str(self.step),
            "--out", self.ppm, "--csv", self.csv,
        ]
        # the axes region-plot documents: reduced a = p/q in (0, 1] with
        # q <= qmax, and c = cmin + j*step strictly inside (cmin, cmax)
        self.avals = sorted({F(p, q) for q in range(1, self.qmax + 1) for p in range(1, q + 1)})
        self.cvals = [self.cmin + j * self.step for j in range(1, width * 16)]
        self.cells = len(self.avals) * len(self.cvals)
        self.digests = []  # (ppm sha256, csv sha256) per pass
        self.csv_text = None
        self._spans = []
        self._install_timer()

    def _install_timer(self):
        # Per-cell latency and deadline: region_sweep classifies each cell
        # through the name `classify` in gaborbox.cli.
        real = self.cli.classify

        def timed_classify(a, b, c):
            t0 = time.perf_counter()
            with Deadline(self.deadline_s):
                d = real(a, b, c)
            self._spans.append((t0, time.perf_counter()))
            return d

        self.cli.classify = timed_classify

    def describe(self):
        return (f"{self.cells} cells: q <= {self.qmax}, c in ({self.cmin}, {self.cmax}) "
                f"step {self.step}, b = 1")

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["region-plot", "--qmax", "4", "--cmin", "1", "--cmax", "3",
                           "--out", self.ppm, "--csv", self.csv])

    def run_pass(self, hard_stop):
        self._spans = []
        err = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(self.argv)
            if rc != 0:
                err = f"region-plot exited {rc}"
        except DeadlineExceeded:
            err = f"cell did not finish within {self.deadline_s}s"
        except Exception as e:  # a raising cell fails the pass's remaining cells
            err = f"raised {type(e).__name__}: {e}"
        recs = [Record(i, t0, t1) for i, (t0, t1) in enumerate(self._spans)]
        if err is not None:
            recs.extend(Record(i, None, None, error=err) for i in range(len(recs), self.cells))
        elif len(recs) != self.cells:
            # the latency tap no longer sees one classify call per cell
            recs = [Record(i, None, None, error=f"saw {len(self._spans)} classify calls for "
                                                f"{self.cells} cells") for i in range(self.cells)]
        return recs

    def close(self):
        for path in (self.ppm, self.csv):
            if os.path.exists(path):
                os.remove(path)

    def after_pass(self, records):
        with open(self.ppm, "rb") as fh:
            ppm = hashlib.sha256(fh.read()).hexdigest()
        with open(self.csv, "rb") as fh:
            raw = fh.read()
        self.digests.append((ppm, hashlib.sha256(raw).hexdigest()))
        if self.csv_text is None:
            self.csv_text = raw.decode("ascii")

    def check(self, passes):
        from gaborbox import normalize, rat
        from gaborbox.errors import GaborBoxError
        from gaborbox.oracle import grid_frame_decision

        # a pass that wrote other bytes than pass 0 fails all its cells
        failures = []
        for k, recs in enumerate(passes):
            if self.digests[k] != self.digests[0]:
                failures.extend(f"pass {k}: raster digests differ from pass 0" for _ in recs)
        lines = self.csv_text.splitlines()
        expected = [(a, c) for a in self.avals for c in self.cvals]
        if lines[0] != "a,c,region,verdict" or len(lines) - 1 != len(expected):
            return failures + ["csv layout differs from the sweep axes"] * self.cells * len(passes)
        one = rat(1)
        cell_failures = []
        for (a, c), line in zip(expected, lines[1:]):
            sa, sc, region, verdict = line.split(",")
            ok = F(sa) == a and F(sc) == c
            if ok and a > c:
                ok = verdict == "NotFrame"
            elif ok and a < c <= 1:
                ok = verdict == "Frame"
            elif ok and region in GRID_REGIONS and (c * a.denominator).denominator == 1:
                try:
                    ok = grid_frame_decision(normalize(rat(a), one, rat(c))) == verdict
                except GaborBoxError:
                    ok = False
            if not ok:
                cell_failures.append(f"cell a={a} c={c}: {region} {verdict} disagrees with reference")
        # every pass wrote the bytes checked here, so a bad cell fails in each
        return failures + cell_failures * len(passes)


GRID_REGIONS = {"VIII", "IX", "X", "XI", "XIII"}


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


class Agreement(Workload):
    """triple_pipeline_check over a stratified 42% draw of the 5,955 on-grid
    rational triples a = p/q < 1 (q <= 16), b = 1, c = k/q in (1, 8): the
    same share of every (p, q, floor(c)) stratum, so every seed carries the
    same mix of sizes and regions."""

    name = "agreement"
    deadline_s = 10.0
    share = 0.42
    numeric_every = 10

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = random.Random(seed)
        qmax = 6 if smoke else 16
        strata = {}
        for q in range(2, qmax + 1):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                for k in range(q + 1, 8 * q):
                    strata.setdefault((p, q, k // q), []).append(k)
        picks = []
        for (p, q, _), ks in sorted(strata.items()):
            take = round(self.share * len(ks))
            picks.extend((p, q, k) for k in sorted(rng.sample(ks, take)))
        self.population = sum(len(ks) for ks in strata.values())
        self.qmax = qmax
        self.items = [(p, q, k, i % self.numeric_every == 0)
                      for i, (p, q, k) in enumerate(picks)]

    def describe(self):
        n_num = sum(1 for it in self.items if it[3])
        return (f"{len(self.items)} of {self.population} on-grid triples (q <= {self.qmax}, "
                f"c in (1, 8)), numeric route on {n_num}")

    def _decide(self, item):
        from gaborbox import normalize, rat
        from gaborbox.oracle import numeric_frame_bounds, triple_pipeline_check

        p, q, k, numeric = item
        nt = normalize(rat(F(p, q)), rat(1), rat(F(k, q)))
        clash = triple_pipeline_check(nt)
        bounds = numeric_frame_bounds(nt, half_width=8) if numeric else None
        return clash, bounds

    def warm_up(self):
        self._decide(self.items[0])

    def run_pass(self, hard_stop):
        return run_items(self.items, self._decide, self.deadline_s, hard_stop, self.meter)

    def check(self, passes):
        from gaborbox import normalize, rat
        from gaborbox.classifier import classify_triple
        from gaborbox.lattice import region_tag
        from gaborbox.oracle import grid_frame_decision

        failures = []
        ref = {}
        for i, (p, q, k, numeric) in enumerate(self.items):
            nt = normalize(rat(F(p, q)), rat(1), rat(F(k, q)))
            verdict = classify_triple(nt).verdict
            why = None
            if str(region_tag(nt)) in GRID_REGIONS and grid_frame_decision(nt) != verdict:
                why = f"closed form says {verdict}, grid oracle disagrees"
            ref[i] = (why, verdict)
        for recs in passes:
            for r in recs:
                if r.error is not None:
                    continue
                why, verdict = ref[r.key]
                clash, bounds = r.output
                if clash is not None:
                    why = f"route clash: {clash}"
                elif bounds is not None:
                    lo, hi = bounds
                    if not (0.0 <= lo <= hi and math.isfinite(hi) and hi > 0):
                        why = f"numeric bounds out of order: {bounds}"
                    elif verdict == "Frame" and lo <= 0.0:
                        why = "numeric route finds a singular phase on a frame"
                if why is not None:
                    p, q, k, _ = self.items[r.key]
                    failures.append(f"a={p}/{q} c={k}/{q}: {why}")
        return failures


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# Region XII ladder: a = x0 + x1*tau, b = 1, c = 7/2, with n = floor(a/(b-a))
# at each rung.  Each pool holds instances of one rung; the seed picks one.
XII_POOLS = {
    ("sqrt2", 16): [(0, F(2, 3)), (-2, F(52, 25)), (-2, F(77, 37)), (-2, F(102, 49))],
    ("sqrt3", 16): [(-1, F(37, 33)), (-1, F(46, 41)), (0, F(25, 46)), (-1, F(55, 49))],
    ("pi", 16): [(0, F(3, 10)), (-1, F(34, 55)), (-2, F(59, 63)), (-1, F(47, 76))],
    ("sqrt2", 47): [(-2, F(158, 75)), (-2, F(217, 103)), (-2, F(276, 131)), (-2, F(375, 178))],
    ("sqrt3", 47): [(-1, F(8, 7)), (0, F(95, 168)), (-2, F(289, 168))],
    ("pi", 47): [(0, F(24, 77)), (-1, F(63, 100)), (-2, F(147, 155)), (0, F(53, 170))],
    ("sqrt2", 98): [(0, F(7, 10)), (-1, F(159, 113)), (-1, F(356, 253)), (-2, F(611, 289))],
    ("sqrt3", 98): [(-2, F(309, 179)), (-2, F(454, 263))],
    ("pi", 98): [(-2, F(138, 145)), (0, F(75, 238))],
}

# Region XIII rungs: a = p/(p+4), b = 1, c = k/(p+4).  "early" pools hold
# instances where cond_XIII finds a witness at once, "scan" pools instances
# with no witness, so the search runs to the end.  Instances in one pool have
# near-equal classify + compute_S cost at the seed commit.
XIII_POOLS = {
    (97, "early"): [326, 346],
    (97, "scan"): [308, 328],
    (197, "early"): [667, 779],
    (197, "scan"): [695, 702, 744],
    (397, "early"): [1347, 1555],
    (397, "scan"): [1230, 1373],
    (797, "early"): [2515, 3224],
    (797, "scan"): [3598, 3599],
}


class Certificates(Workload):
    name = "certificates"
    deadline_s = 40.0

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = random.Random(seed)
        items = []
        for (ctx, n), pool in sorted(XII_POOLS.items()):
            if smoke and n > 16:
                continue
            x0, x1 = rng.choice(pool)
            items.append(("XII", f"{ctx} n={n}", ctx, (F(x0), x1), (F(7, 2), F(0))))
        for (p, kind), pool in sorted(XIII_POOLS.items()):
            if smoke and p > 97:
                continue
            k = rng.choice(pool)
            items.append(("XIII", f"p={p} {kind}", "rational", (F(p, p + 4), F(0)),
                          (F(k, p + 4), F(0))))
        rng.shuffle(items)
        self.items = items

    def describe(self):
        return "ladder: " + ", ".join(f"{it[0]} {it[1]}" for it in self.items)

    @staticmethod
    def _context(kind):
        from gaborbox import RATIONAL, pi_context, surd_context

        if kind == "rational":
            return RATIONAL
        if kind == "pi":
            return pi_context()
        return surd_context(int(kind[len("sqrt"):]))

    def _triple(self, item):
        ctx = self._context(item[2])
        return ctx.num(*item[3]), ctx.num(1), ctx.num(*item[4])

    def _decide(self, item):
        from gaborbox import classify, compute_S, normalize

        a, b, c = self._triple(item)  # a fresh context per decision
        d = classify(a, b, c)
        report = compute_S(normalize(a, b, c))
        return d.verdict, str(d.region), report

    def warm_up(self):
        # the cheapest pi rung, which pulls in mpmath
        self._decide(next(it for it in self.items if it[1] == "pi n=16"))

    def run_pass(self, hard_stop):
        return run_items(self.items, self._decide, self.deadline_s, hard_stop, self.meter)

    def output_counts(self, records):
        steps = sum(len(r.output[2].chain) for r in records if r.error is None)
        ivs = sum(len(r.output[2].S.intervals) for r in records if r.error is None)
        return {"dynsys.chain_steps": steps, "dynsys.S_intervals": ivs}

    def check(self, passes):
        from gaborbox import normalize
        from gaborbox.dynsys import measure_identity
        from gaborbox.oracle import grid_frame_decision

        failures = []
        refs = {}
        for recs in passes:
            for r in recs:
                if r.error is not None:
                    continue
                item = self.items[r.key]
                verdict, region, report = r.output
                nt = normalize(*self._triple(item))
                if region != item[0]:
                    why = f"region {region}, expected {item[0]}"
                elif item[0] == "XII":
                    S = report.S
                    ref = "Frame" if S.is_empty or measure_identity(nt, S) else "NotFrame"
                    why = None if ref == verdict else f"{verdict}, invariant set says {ref}"
                else:
                    if r.key not in refs:
                        refs[r.key] = grid_frame_decision(nt)
                    ref = refs[r.key]
                    why = None if ref == verdict else f"{verdict}, grid oracle says {ref}"
                if why is not None:
                    failures.append(f"{item[0]} {item[1]}: {why}")
        return failures


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli(Workload):
    """A fixed mix of fresh CLI processes on small triples: classify --json in
    the rational, pi and sqrt:3 contexts, invariant-set --json and sampling
    --json.  The seed picks the triples."""

    name = "cli"
    deadline_s = 30.0  # per process

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cwd = str(SRC.parent)
        mix = []
        mix += [["classify", "--json"] + _rational_triple(rng) for _ in range(3)]
        mix += [["classify", "--json", "--context", "pi"] + _tau_triple(rng, "pi")
                for _ in range(2)]
        mix += [["classify", "--json", "--context", "sqrt:3"] + _tau_triple(rng, "sqrt(3)")
                for _ in range(2)]
        mix += [["invariant-set", "--json"] + _rational_triple(rng, xiii=True)
                for _ in range(2)]
        mix += [["sampling", "--json"] + _rational_triple(rng)]
        if smoke:
            mix = mix[::4]
        self.items = mix
        self.trace_dir = None  # set for the traced pass

    def describe(self):
        return f"{len(self.items)} processes a pass: " + "; ".join(
            " ".join(a for a in argv if a != "--json") for argv in self.items)

    def _cmd(self, argv, key):
        if self.trace_dir is None:
            return [sys.executable, "-m", "gaborbox.cli"] + argv
        out = self.trace_dir / f"child-{key}.json"
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(out)] + argv

    def _decide(self, key_argv):
        key, argv = key_argv
        try:
            proc = subprocess.run(self._cmd(argv, key), capture_output=True, text=True,
                                  cwd=self.cwd, env=self.env, timeout=self.deadline_s)
        except subprocess.TimeoutExpired:
            raise DeadlineExceeded()
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        self._decide((0, self.items[0]))

    def run_pass(self, hard_stop):
        return run_items(list(enumerate(self.items)), self._decide, None, hard_stop,
                         self.meter)

    def output_counts(self, records):
        steps = ivs = 0
        for r in records:
            if r.error is None and r.output[0] in (0, 3):
                payload = json.loads(r.output[1])
                steps += len(payload.get("chain") or ())
                ivs += len(payload.get("S") or ())
        return {"dynsys.chain_steps": steps, "dynsys.S_intervals": ivs}

    def check(self, passes):
        from gaborbox import classify, compute_S, normalize, sampling_stable
        from gaborbox.cli import parse_context, parse_number

        refs = {}
        for key, argv in enumerate(self.items):
            flags = _flags(argv)
            ctx = parse_context(flags.get("--context", "rational"))
            a, b, c = (parse_number(flags[f], ctx) for f in ("--a", "--b", "--c"))
            if argv[0] == "classify":
                d = classify(a, b, c)
                refs[key] = (0 if d.is_frame else 3, {"verdict": d.verdict, "region": str(d.region)})
            elif argv[0] == "invariant-set":
                S = compute_S(normalize(a, b, c)).S
                refs[key] = (0, {"S": [[lo.render(), hi.render()] for lo, hi in S.intervals]})
            else:
                s = sampling_stable(a, b, c)
                refs[key] = (0 if s.stable else 3, {"stable": s.stable})
        failures = []
        for recs in passes:
            for r in recs:
                if r.error is not None:
                    continue
                rc, out, err = r.output
                want_rc, want = refs[r.key]
                why = None
                if rc != want_rc:
                    why = f"exit {rc}, library says {want_rc}: {err.strip()[-200:]}"
                else:
                    payload = json.loads(out)
                    diff = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
                    if diff:
                        why = f"payload {diff} differs from library {want}"
                if why is not None:
                    failures.append(f"{' '.join(self.items[r.key])}: {why}")
        return failures


def _flags(argv):
    out = {}
    i = 1
    while i < len(argv):
        if argv[i] == "--json":
            i += 1
            continue
        out[argv[i]] = argv[i + 1]
        i += 2
    return out


def _rational_triple(rng, xiii=False):
    """A small on-grid rational triple; with xiii, one in region XIII."""
    from gaborbox import normalize, rat
    from gaborbox.lattice import RegionTag, region_tag

    while True:
        q = rng.randrange(5, 18)
        p = rng.randrange(q // 2 + 1, q)
        if math.gcd(p, q) != 1:
            continue
        k = rng.randrange(2 * q + 1, 6 * q)
        if xiii and region_tag(normalize(rat(F(p, q)), rat(1), rat(F(k, q)))) is not RegionTag.XIII:
            continue
        return ["--a", f"{p}/{q}", "--b", "1", "--c", f"{k}/{q}"]


def _tau_triple(rng, basis):
    """a = u*tau in (0.55, 0.85), so a/(b-a) stays small; c = m/2 in (2, 5)."""
    tau = math.pi if basis == "pi" else math.sqrt(3)
    while True:
        s = rng.randrange(3, 13)
        r = rng.randrange(1, 3 * s)
        if math.gcd(r, s) == 1 and 0.55 < r / s * tau < 0.85:
            break
    m = rng.randrange(5, 10)
    return ["--a", f"{r}/{s}*{basis}", "--b", "1", "--c", f"{m}/2"]


WORKLOADS = {w.name: w for w in (Raster, Agreement, Certificates, Cli)}

"""Command-line interface.

Numbers are written exactly: integers, fractions n/m, multiples of pi or
sqrt(D), and sums/differences of those, e.g. '13/17', '23-11*pi/2',
'15/2*sqrt(3)'.  A value using an irrational basis must be accompanied by
the matching --context (pi or sqrt:D); the default context is rational and
nothing is inferred silently.

Exit codes: 0 for a Frame (or stable-sampling) verdict, 3 for NotFrame
(or unstable), 1 for any error, and for selftest 1 on pipeline
disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .classifier import (
    FrameDecision,
    GcdCondition,
    IrrationalParams,
    RationalParams,
    RecursionPair,
    classify,
    classify_triple,
)
from .dynsys import (
    InvariantSetReport,
    apply_R,
    apply_Rt,
    compute_S,
    maps_defined,
)
from .errors import (
    ContextMismatch,
    GaborBoxError,
    NumberSyntaxError,
    OutputUnwritable,
    RegionUnsupported,
    UnsupportedRange,
    UsageError,
)
from .exactnum import (
    RATIONAL,
    ExactReal,
    NumberContext,
    check_radicand,
    mod,
    pi_context,
    rat,
    square_free_decompose,
    surd_context,
)
from .lattice import PeriodicSet, RegionTag, normalize
from .sampling import sampling_stable


# ---------------------------------------------------------------------------
# number grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>pi|sqrt)|(?P<op>[+\-*/()])")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise NumberSyntaxError(f"unexpected character {ch!r}", i + 1)
        col = i + 1
        if m.lastgroup == "int":
            try:
                value = int(m.group())
            except ValueError:  # longer than the interpreter's int-string limit
                raise NumberSyntaxError("integer literal is too long", col) from None
            tokens.append(("int", value, col))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), col))
        else:
            tokens.append(("op", m.group(), col))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise NumberSyntaxError("unexpected end of input", len(self.text) + 1)
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise NumberSyntaxError(f"expected {op!r}", tok[2])
        return tok

    # expression := [+-] term (('+'|'-') term)*
    def parse(self) -> Tuple[Fraction, Fraction, Optional[Tuple[str, Optional[int]]]]:
        if not self.tokens:
            raise NumberSyntaxError("empty number", 1)
        x0 = Fraction(0)
        x1 = Fraction(0)
        basis: Optional[Tuple[str, Optional[int]]] = None
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            coef, term_basis = self.parse_term()
            coef *= sign
            if term_basis is None:
                x0 += coef
            else:
                if basis is not None and basis != term_basis:
                    raise NumberSyntaxError(
                        "at most one irrational basis may appear",
                        self.tokens[self.pos - 1][2],
                    )
                basis = term_basis
                x1 += coef
            tok = self.peek()
            if tok is None:
                return x0, x1, basis
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
                continue
            raise NumberSyntaxError("expected '+' or '-'", tok[2])

    # term := atom (('*'|'/') atom)*
    def parse_term(self) -> Tuple[Fraction, Optional[Tuple[str, Optional[int]]]]:
        coef, basis = self.parse_atom("*")
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return coef, basis
            op = self.take()[1]
            c2, b2 = self.parse_atom(op)
            if b2 is not None:
                if op == "/":
                    raise NumberSyntaxError(
                        "cannot divide by an irrational", self.tokens[self.pos - 1][2]
                    )
                if basis is not None:
                    raise NumberSyntaxError(
                        "at most one irrational factor per term",
                        self.tokens[self.pos - 1][2],
                    )
                basis = b2
            if op == "*":
                coef *= c2
            else:
                if c2 == 0:
                    raise NumberSyntaxError(
                        "division by zero", self.tokens[self.pos - 1][2]
                    )
                coef /= c2

    # atom := INT | 'pi' | 'sqrt' '(' INT ')'
    def parse_atom(self, op: str) -> Tuple[Fraction, Optional[Tuple[str, Optional[int]]]]:
        tok = self.take()
        if tok[0] == "int":
            return Fraction(tok[1]), None
        if tok[0] == "name" and tok[1] == "pi":
            return Fraction(1), ("pi", None)
        if tok[0] == "name" and tok[1] == "sqrt":
            self.expect_op("(")
            arg = self.take()
            if arg[0] != "int":
                raise NumberSyntaxError("sqrt needs an integer argument", arg[2])
            self.expect_op(")")
            if arg[1] == 0:
                return Fraction(0), None
            check_radicand(arg[1])
            s, d = square_free_decompose(arg[1])
            if d == 1:
                return Fraction(s), None
            return Fraction(s), ("surd", d)
        raise NumberSyntaxError("expected a number, 'pi' or 'sqrt(...)'", tok[2])


def parse_number(text: str, ctx: NumberContext) -> ExactReal:
    """Parse one exact number against the given context.

    Raises NumberSyntaxError (with a column) on malformed input and
    ContextMismatch when the value needs a different basis than ctx.
    """
    x0, x1, basis = _Parser(text).parse()
    if basis is None:
        return ctx.num(x0, Fraction(0))
    kind, d = basis
    if kind == "pi":
        if ctx.kind != "pi":
            raise ContextMismatch(
                f"{text!r} uses pi; pass --context pi (current: {_ctx_name(ctx)})"
            )
        return ctx.num(x0, x1)
    if ctx.kind != "surd" or ctx.d != d:
        raise ContextMismatch(
            f"{text!r} uses sqrt({d}); pass --context sqrt:{d} "
            f"(current: {_ctx_name(ctx)})"
        )
    return ctx.num(x0, x1)


def _ctx_name(ctx: NumberContext) -> str:
    if ctx.kind == "rational":
        return "rational"
    if ctx.kind == "pi":
        return "pi"
    return f"sqrt:{ctx.d}"


def parse_context(spec: str) -> NumberContext:
    if spec == "rational":
        return RATIONAL
    if spec == "pi":
        return pi_context()
    m = re.fullmatch(r"sqrt:(\d+)", spec)
    if m:
        d = int(m.group(1))
        if d < 2:
            raise UnsupportedRange(f"sqrt context needs an integer >= 2, got {d}")
        check_radicand(d)
        if square_free_decompose(d)[1] == 1:
            raise UnsupportedRange(f"sqrt:{d} is rational; use the rational context")
        return surd_context(d)
    raise UnsupportedRange(
        f"unknown context {spec!r}; use rational, pi or sqrt:D"
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _intervals_json(S: PeriodicSet) -> List[List[str]]:
    return [[lo.render(), hi.render()] for lo, hi in S.intervals]


def _intervals_text(S: PeriodicSet) -> str:
    return " ".join(f"[{lo.render()}, {hi.render()})" for lo, hi in S.intervals)


def _decision_json(d: FrameDecision) -> dict:
    return {
        "verdict": d.verdict,
        "region": str(d.region),
        "witness": _witness_json(d.witness),
    }


def _witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, GcdCondition):
        return {"kind": "gcd-condition", "case": w.case_id, "values": w.values}
    if isinstance(w, IrrationalParams):
        return {
            "kind": "irrational-params",
            "d1": w.d1, "d2": w.d2, "m": w.m, "e_count": w.e_count,
        }
    if isinstance(w, RationalParams):
        return {
            "kind": "rational-params", "case": w.case_id,
            "d1": w.d1, "d2": w.d2, "d3": w.d3, "d4": w.d4, "N": w.N,
            "delta": w.delta.render() if w.delta is not None else None,
            "e_count": w.e_count,
        }
    if isinstance(w, RecursionPair):
        return {
            "kind": "recursion-pair",
            "low": _decision_json(w.low),
            "high": _decision_json(w.high),
        }
    return {"kind": "unknown", "repr": repr(w)}


def _invariant_set_json(report: Optional[InvariantSetReport]) -> dict:
    """The S / Ya / theta / marks block; every value is null without a report."""
    if report is None:
        return dict.fromkeys(("S", "Ya", "theta", "marks"))
    m = report.marks
    marks = None
    if m is not None:
        marks = {"kind": m.kind, "points": [p.render() for p in m.points]}
        if m.generator is not None:
            marks["generator"] = m.generator.render()
            marks["order"] = m.order
    return {
        "S": _intervals_json(report.S),
        "Ya": report.Ya.render(),
        "theta": report.theta.render() if report.theta is not None else None,
        "marks": marks,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _add_triple_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", required=True, help="lattice step along time")
    sp.add_argument("--b", required=True, help="lattice step along frequency (period 1/b)")
    sp.add_argument("--c", required=True, help="window length")
    sp.add_argument(
        "--context", default="rational",
        help="number field for the triple: rational (default), pi, or sqrt:D",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _read_triple(args) -> Tuple[NumberContext, ExactReal, ExactReal, ExactReal]:
    ctx = parse_context(args.context)
    a = parse_number(args.a, ctx)
    b = parse_number(args.b, ctx)
    c = parse_number(args.c, ctx)
    return ctx, a, b, c


def _cmd_classify(args) -> int:
    _, a, b, c = _read_triple(args)
    t0 = time.perf_counter()
    nt = normalize(a, b, c)
    decision = classify_triple(nt)
    t1 = time.perf_counter()
    if args.json:
        try:
            report = compute_S(nt)
        except RegionUnsupported:
            report = None  # no invariant-set construction on this region
        payload = {
            **_decision_json(decision),
            **_invariant_set_json(report),
            "timings": {"classify_s": t1 - t0},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{decision.verdict} (region {decision.region})")
        w = _witness_json(decision.witness)
        if w is not None:
            print(f"witness: {json.dumps(w)}")
    return 0 if decision.is_frame else 3


def _cmd_invariant_set(args) -> int:
    _, a, b, c = _read_triple(args)
    nt = normalize(a, b, c)
    t0 = time.perf_counter()
    report = compute_S(nt)
    t1 = time.perf_counter()
    if args.json:
        payload = {
            "region": str(nt.region),
            **_invariant_set_json(report),
            "rational_extras": (
                {
                    "N1": report.rational_extras.N1,
                    "N2": report.rational_extras.N2,
                    "delta": report.rational_extras.delta.render(),
                    "delta_prime": report.rational_extras.delta_prime.render(),
                    "h": report.rational_extras.h.render(),
                }
                if report.rational_extras is not None
                else None
            ),
            "chain": [
                {
                    "index": step.index,
                    "status": str(step.status),
                    "hole": _intervals_json(step.hole),
                }
                for step in report.chain
            ],
            "timings": {"invariant_set_s": t1 - t0},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"region {nt.region}")
        if report.S.is_empty:
            print("S is empty")
        else:
            print(f"S = {_intervals_text(report.S)}  (mod {nt.a.render()})")
            print(f"measure Ya = {report.Ya.render()}")
            print(f"theta = {report.theta.render()}")
            m = report.marks
            if m.kind == "cyclic":
                print(f"marks: cyclic group, generator {m.generator.render()}, order {m.order}")
            else:
                print(f"marks: {{{', '.join(p.render() for p in m.points)}}}")
            if report.rational_extras is not None:
                e = report.rational_extras
                print(
                    f"gaps: N1={e.N1} N2={e.N2} delta={e.delta.render()} "
                    f"delta'={e.delta_prime.render()} h={e.h.render()}"
                )
        for step in report.chain:
            print(f"  step {step.index}: {step.status} {_intervals_text(step.hole)}")
    return 0


def _cmd_sampling(args) -> int:
    _, a, b, c = _read_triple(args)
    decision = sampling_stable(a, b, c)
    if args.json:
        payload = {
            "stable": decision.stable,
            "route": decision.route,
            "underlying": (
                {
                    "verdict": decision.underlying.verdict,
                    "region": str(decision.underlying.region),
                }
                if decision.underlying is not None
                else None
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        word = "stable" if decision.stable else "unstable"
        print(f"{word} (route {decision.route})")
    return 0 if decision.stable else 3


_MAX_ORBIT_STEPS = 100_000


def _cmd_orbit(args) -> int:
    if not 0 <= args.steps <= _MAX_ORBIT_STEPS:
        raise UnsupportedRange(f"--steps must lie in [0, {_MAX_ORBIT_STEPS}], got {args.steps}")
    ctx, a, b, c = _read_triple(args)
    nt = normalize(a, b, c)
    if not maps_defined(nt):
        raise UnsupportedRange("orbit needs a < b < c and b-a < c0 < a")
    t = parse_number(args.t, ctx)
    step = apply_Rt if args.map == "backward" else apply_R
    x = mod(t, nt.a)
    points = [x]
    for _ in range(args.steps):
        x = mod(step(x, nt), nt.a)
        points.append(x)
    if args.json:
        print(json.dumps({"points": [p.render() for p in points]}))
    else:
        for p in points:
            print(p.render())
    return 0


# ---------------------------------------------------------------------------
# region sweep (CSV + PPM)
# ---------------------------------------------------------------------------

# fixed palette: (region, verdict) -> RGB; NotFrame entries are the dimmed
# variants of the Frame colours so verdicts stay tellable apart at a glance
_REGION_BASE: Dict[str, Tuple[int, int, int]] = {
    "I": (158, 1, 66), "II": (213, 62, 79), "III": (244, 109, 67),
    "IV": (253, 174, 97), "V": (254, 224, 139), "VI": (230, 245, 152),
    "VII": (171, 221, 164), "VIII": (102, 194, 165), "IX": (50, 136, 189),
    "X": (94, 79, 162), "XI": (140, 81, 10), "XII": (191, 129, 45),
    "XIII": (53, 151, 143), "XIV": (1, 102, 94),
}

PALETTE: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
for _r, _rgb in _REGION_BASE.items():
    PALETTE[(_r, "Frame")] = _rgb
    PALETTE[(_r, "NotFrame")] = tuple(v // 3 for v in _rgb)


_MAX_CELLS = 10**6
# the row walk takes one step per q <= qmax and one per numerator p tried,
# whether or not p/q lands in the sweep
_MAX_ROW_STEPS = 2 * 10**6


def _sweep_axes(qmax: int, amin: Fraction, amax: Fraction,
                cmin: Fraction, cmax: Fraction, step_c: Fraction):
    if qmax < 1:
        raise UnsupportedRange("qmax must be >= 1")
    if not (amin < amax):
        raise UnsupportedRange("need amin < amax")
    if not (cmin < cmax):
        raise UnsupportedRange("need cmin < cmax")
    if step_c <= 0:
        raise UnsupportedRange("step-c must be positive")
    ncols = -((cmin - cmax) // step_c) - 1  # k >= 1 with cmin + k*step_c < cmax
    avals = []
    lo_n, lo_d = amin.numerator, amin.denominator
    hi_n, hi_d = amax.numerator, amax.denominator
    steps = qmax
    for q in range(1, qmax + 1):  # each reduced p/q once, at its own q
        p_lo, p_hi = max(1, lo_n * q // lo_d + 1), hi_n * q // hi_d + 1
        steps += max(0, p_hi - p_lo)
        if steps > _MAX_ROW_STEPS:  # checked before any work when qmax alone is too large
            raise UnsupportedRange(
                f"the row walk takes more than {_MAX_ROW_STEPS} steps (one per q <= --qmax "
                "and one per numerator tried); lower --qmax or narrow the a range"
            )
        for p in range(p_lo, p_hi):
            if gcd(p, q) == 1:
                avals.append(Fraction(p, q))
                if len(avals) * ncols > _MAX_CELLS:
                    raise UnsupportedRange(
                        f"the sweep has more than {_MAX_CELLS} cells; "
                        "lower --qmax or narrow the a or c range"
                    )
    if not avals:
        raise UnsupportedRange("no lattice steps a = p/q fall inside (amin, amax]")
    if not ncols:
        raise UnsupportedRange("no window lengths fall inside (cmin, cmax)")
    avals.sort()
    cvals = [cmin + k * step_c for k in range(1, ncols + 1)]
    return avals, cvals


def _sweep_row(payload) -> List[Tuple[str, str]]:
    a_frac, c_fracs = payload
    a = rat(a_frac)
    one = rat(1)
    out = []
    for c_frac in c_fracs:
        d = classify(a, one, rat(c_frac))
        out.append((str(d.region), d.verdict))
    return out


def region_sweep(qmax: int, amin: Fraction, amax: Fraction, cmin: Fraction,
                 cmax: Fraction, step_c: Fraction, workers: int = 1):
    """Classify the whole (a, c) grid at b = 1; returns (avals, cvals, rows).

    workers is clamped to [1, os.cpu_count()]."""
    avals, cvals = _sweep_axes(qmax, amin, amax, cmin, cmax, step_c)
    return avals, cvals, _sweep_rows(avals, cvals, workers)


def _sweep_rows(avals, cvals, workers: int):
    payloads = [(af, cvals) for af in avals]
    workers = max(1, min(workers, os.cpu_count() or 1))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_sweep_row, payloads, chunksize=1))
    return [_sweep_row(p) for p in payloads]


def _write_ppm(fh, avals, cvals, rows) -> None:
    header = f"P6\n{len(cvals)} {len(avals)}\n255\n".encode("ascii")
    body = bytearray()
    for row in rows:
        for region, verdict in row:
            body.extend(PALETTE[(region, verdict)])
    fh.write(header)
    fh.write(bytes(body))


def _write_csv(fh, avals, cvals, rows) -> None:
    lines = ["a,c,region,verdict"]
    for a_frac, row in zip(avals, rows):
        for c_frac, (region, verdict) in zip(cvals, row):
            lines.append(f"{a_frac},{c_frac},{region},{verdict}")
    fh.write("\n".join(lines))
    fh.write("\n")


def _unwritable(path: str, e: OSError) -> OutputUnwritable:
    # a missing directory, a directory, no permission, a full disk
    return OutputUnwritable(f"cannot write {path!r}: {e.strerror or e}")


def _open_output(path: str, mode: str, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise _unwritable(path, e) from None


def _write_output(write, fh, *table) -> None:
    try:
        with fh:  # closing flushes, which may fail too
            write(fh, *table)
    except OSError as e:
        raise _unwritable(fh.name, e) from None


def _cmd_region_plot(args) -> int:
    def frac(s: str) -> Fraction:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise UnsupportedRange(f"bad fraction {s!r}: {e}")

    # axes, then outputs, then the sweep: a bad range or an unwritable path
    # fails before any cell is classified
    avals, cvals = _sweep_axes(
        args.qmax, frac(args.amin), frac(args.amax), frac(args.cmin),
        frac(args.cmax), frac(args.step_c),
    )
    with _open_output(args.out, "wb") as ppm, (
        _open_output(args.csv, "w", encoding="ascii", newline="")
        if args.csv else contextlib.nullcontext()
    ) as csv:
        rows = _sweep_rows(avals, cvals, args.workers)
        _write_output(_write_ppm, ppm, avals, cvals, rows)
        if csv is not None:
            _write_output(_write_csv, csv, avals, cvals, rows)
    print(
        f"wrote {len(avals)}x{len(cvals)} cells to {args.out}"
        + (f" and {args.csv}" if args.csv else "")
    )
    return 0


_MAX_SELFTEST_QMAX = 64


def _cmd_selftest(args) -> int:
    from .oracle import on_grid_survey, triple_pipeline_check

    if not 1 <= args.qmax <= _MAX_SELFTEST_QMAX:
        raise UnsupportedRange(
            f"--qmax must lie in [1, {_MAX_SELFTEST_QMAX}], got {args.qmax}"
        )
    failures: List[str] = []
    checked = 0
    tally: Counter = Counter()
    for nt in on_grid_survey(args.qmax, 1, 8, regions=tuple(RegionTag)):
        d = classify_triple(nt)
        tally[(str(d.region), d.verdict)] += 1
        clash = triple_pipeline_check(nt)
        checked += 1
        if clash is not None:
            failures.append(clash)
    print(f"swept {checked} on-grid triples (q <= {args.qmax}, b = 1, c in (1, 8))")
    for (tag, verdict), n in sorted(tally.items()):
        print(f"  region {tag:>4}  {verdict:>8}  {n:5d}")
    # a handful of fixed verdicts, one of them off the rational field
    expected = [
        ("13/17", "1", "77/17", "rational", "Frame"),
        ("13/17", "1", "75/17", "rational", "NotFrame"),
        ("13/17", "1", "73/17", "rational", "Frame"),
        ("6/7", "1", "23/7", "rational", "Frame"),
        ("3/4", "1", "3", "rational", "NotFrame"),
        ("pi/4", "1", "23-11*pi/2", "pi", "Frame"),
    ]
    for sa, sb, sc, ctx_name, want in expected:
        ctx = parse_context(ctx_name)
        d = classify(parse_number(sa, ctx), parse_number(sb, ctx), parse_number(sc, ctx))
        checked += 1
        if d.verdict != want:
            failures.append(
                f"fixture ({sa}, {sb}, {sc}): expected {want}, got {d.verdict}"
            )
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"{len(failures)} failure(s) out of {checked} checks", file=sys.stderr)
        return 1
    print(f"all {checked} checks agree")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting 2, so a bad command line exits 1
    like every other error; subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="gaborbox",
        description="Exact frame classification for box-window Gabor systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="frame / not-frame verdict for one triple")
    _add_triple_flags(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("invariant-set", help="maximal invariant set and surgery data")
    _add_triple_flags(sp)
    sp.set_defaults(func=_cmd_invariant_set)

    sp = sub.add_parser("sampling", help="stability of periodic-average sampling")
    _add_triple_flags(sp)
    sp.set_defaults(func=_cmd_sampling)

    sp = sub.add_parser("orbit", help="iterate the forward or backward map")
    _add_triple_flags(sp)
    sp.add_argument("--t", required=True, help="starting point")
    sp.add_argument("--steps", type=int, default=20,
                    help=f"number of map steps, 0 to {_MAX_ORBIT_STEPS}")
    sp.add_argument("--map", choices=("forward", "backward"), default="forward")
    sp.set_defaults(func=_cmd_orbit)

    sp = sub.add_parser("region-plot", help="raster + CSV sweep of the (a, c) plane at b = 1")
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--amin", default="0")
    sp.add_argument("--amax", default="1")
    sp.add_argument("--cmin", default="0")
    sp.add_argument("--cmax", default="6")
    sp.add_argument("--step-c", dest="step_c", default="1/8")
    sp.add_argument("--out", required=True, help="output PPM (P6) path")
    sp.add_argument("--csv", default=None, help="optional CSV path")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes, clamped to [1, CPU count]")
    sp.set_defaults(func=_cmd_region_plot)

    sp = sub.add_parser("selftest", help="cross-check all verdict pipelines on a built-in grid")
    sp.add_argument("--qmax", type=int, default=6,
                    help=f"largest denominator q, 1 to {_MAX_SELFTEST_QMAX}")
    sp.set_defaults(func=_cmd_selftest)

    return ap


# flags that take an exact number; argparse would read a value such as -1/2
# or -pi/4 as an option of its own, so "--a -1/2" is passed on as "--a=-1/2"
_NUMBER_FLAGS = frozenset(
    ("--a", "--b", "--c", "--t", "--amin", "--amax", "--cmin", "--cmax", "--step-c")
)


def _attach_number_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in _NUMBER_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_attach_number_values(argv))
        return args.func(args)
    except GaborBoxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

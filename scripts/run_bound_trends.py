#!/usr/bin/env python3
"""Tabulate the numeric extreme-singular-value estimates against half-width.

For a rational a/b the estimator samples the finite phase symbol and is
exact -- the A column should be flat.  Off the rational grid it falls back
to plain truncation, where A over-estimates and typically decays like
1/half_width even on Frame triples, so only the trend is meaningful.
The exact classification verdict is printed alongside for reference.

Usage:
    python3 scripts/run_bound_trends.py --a 13/17 --c 77/17
    python3 scripts/run_bound_trends.py --a 13/17 --c 75/17 --half-widths 8,16,32,64
    python3 scripts/run_bound_trends.py --context sqrt:3 --a "1/2*sqrt(3)" \\
        --c "15/2*sqrt(3)" --half-widths 8,32,128
"""

import argparse
import sys
import time

from gaborbox import classify, normalize, region_tag
from gaborbox.cli import parse_context, parse_number
from gaborbox.errors import GaborBoxError
from gaborbox.oracle import numeric_frame_bounds


def half_widths(text):
    return [int(x) for x in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--context", default="rational",
                    help="number context: rational, pi, or sqrt:D")
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", default="1")
    ap.add_argument("--c", required=True)
    ap.add_argument("--half-widths", default=[8, 16, 32],
                    type=half_widths,
                    help="comma-separated truncation half-widths")
    ap.add_argument("--t-samples", type=int, default=16)
    ap.add_argument("--csv", action="store_true",
                    help="emit machine-readable rows instead of a table")
    args = ap.parse_args(argv)
    try:
        return report(args)
    except GaborBoxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def report(args):
    ctx = parse_context(args.context)
    a = parse_number(args.a, ctx)
    b = parse_number(args.b, ctx)
    c = parse_number(args.c, ctx)

    nt = normalize(a, b, c)
    decision = classify(a, b, c)
    mode = "phase-sampled (exact)" if nt.is_rational else "truncated (trend only)"
    if args.csv:
        print("half_width,A_est,B_est,seconds")
    else:
        print(f"triple (a, b, c) = ({a.render()}, {b.render()}, {c.render()})")
        print(f"region {region_tag(nt)}, verdict {decision.verdict}, "
              f"estimator {mode}")
        print(f"{'hw':>5}  {'A_est':>12}  {'B_est':>12}  {'sec':>6}")
    for hw in args.half_widths:
        t0 = time.monotonic()
        lo, hi = numeric_frame_bounds(nt, t_samples=args.t_samples, half_width=hw)
        dt = time.monotonic() - t0
        if args.csv:
            print(f"{hw},{lo!r},{hi!r},{dt:.3f}")
        else:
            print(f"{hw:>5}  {lo:12.8f}  {hi:12.8f}  {dt:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Enumerate irrational-ratio test triples where both decision routes apply.

Scans numbers of the form x0 + x1*tau (tau in {pi, sqrt2, sqrt3}) for triples
(a, 1, c) whose region is the genuinely dynamical irrational one, runs the
closed-form condition AND the hole-propagation pipeline on each (the
agreement check `oracle.triple_pipeline_check`: verdict, two-solvability and
S-existence), and emits the agreeing triples as Python literals ready to
freeze into the test suite.

Candidates come from two families: a coarse coefficient grid, and a targeted
lattice construction that plants obstruction witnesses (so the frozen list is
not all-Frame).  Any route disagreement is printed loudly and the triple is
skipped -- none has ever fired.

Usage: python3 scripts/gen_irrational_fixtures.py [--per-context 50]
"""

import argparse
import sys
from fractions import Fraction

from gaborbox import normalize, rat, region_tag, RegionTag, pi_context, surd_context
from gaborbox.classifier import classify_triple
from gaborbox.oracle import triple_pipeline_check


def grid_candidates(ctx, tau_float):
    """Coarse scan over small-coefficient combinations."""
    a_coeffs = []
    for x1_den in (4, 5, 6, 7, 8, 9, 10, 12):
        for x1_num in range(1, 2 * x1_den):
            x1 = Fraction(x1_num, x1_den)
            for x0 in (Fraction(k) for k in range(-6, 7)):
                val = float(x0) + float(x1) * tau_float
                if 0.51 < val < 0.99:
                    a_coeffs.append((x0, x1))
                val = float(x0) - float(x1) * tau_float
                if 0.51 < val < 0.99:
                    a_coeffs.append((x0, -x1))
    c_coeffs = []
    for y1_den in (2, 3, 4, 8):
        for y1_num in range(-3 * y1_den, 3 * y1_den + 1):
            y1 = Fraction(y1_num, y1_den)
            for y0 in range(-4, 12):
                val = y0 + float(y1) * tau_float
                if 2.05 < val < 7.95:
                    c_coeffs.append((Fraction(y0), y1))
    for (x0, x1) in a_coeffs:
        for (y0, y1) in c_coeffs:
            yield (x0, x1), (y0, y1)


def planted_candidates(ctx, tau_float):
    """Solve c = (d1+1)(f+1)(b-a) + (d2+1)f(b-a) + k*a for small parameters.

    Such c satisfies the obstruction's lattice clause with expr = k*a, so the
    scan hits candidate NotFrame triples (expr != a) and candidate boundary
    Frame triples (expr == a) instead of generic in-window Frame ones.
    """
    a_coeffs = [(Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1, 5)),
                (Fraction(4), Fraction(-1)), (Fraction(-1), Fraction(1, 2)),
                (Fraction(0), Fraction(2, 5)), (Fraction(0), Fraction(5, 12)),
                (Fraction(0), Fraction(3, 7)), (Fraction(-2), Fraction(3, 2)),
                (Fraction(2), Fraction(-2, 5)), (Fraction(3), Fraction(-4, 3))]
    for (x0, x1) in a_coeffs:
        a_val = float(x0) + float(x1) * tau_float
        if not 0.5 < a_val < 1.0:
            continue
        for f in range(2, 8):
            for d1 in range(0, 3):
                for d2 in range(0, 3):
                    base0 = (d1 + 1) * (f + 1) + (d2 + 1) * f  # coefficient of (b-a)
                    # c = base0*(1-a) + k*a; pick k so floor(c) == f
                    for k in range(-20, 30):
                        c0f = base0 * (1.0 - a_val) + k * a_val
                        if f <= c0f < f + 1 and 2.0 < c0f < 8.0:
                            y0 = Fraction(base0) + (k - base0) * x0
                            y1 = (k - base0) * x1
                            yield (x0, x1), (y0, y1)


def collect(tau_name, per_context):
    if tau_name == "pi":
        ctx, tau_float = pi_context(), 3.141592653589793
    elif tau_name == "sqrt2":
        ctx, tau_float = surd_context(2), 2 ** 0.5
    else:
        ctx, tau_float = surd_context(3), 3 ** 0.5

    seen = set()
    rows = []
    n_notframe = 0
    per_a = {}  # cap contributions per distinct a so the list stays diverse
    for source in (planted_candidates(ctx, tau_float), grid_candidates(ctx, tau_float)):
        for (x0, x1), (y0, y1) in source:
            key = (x0, x1, y0, y1)
            if key in seen:
                continue
            seen.add(key)
            if per_a.get((x0, x1), 0) >= 7:
                continue
            a = ctx.num(x0, x1)
            c = ctx.num(y0, y1)
            if a.sign() <= 0 or c.sign() <= 0:
                continue
            nt = normalize(a, rat(1), c)
            if region_tag(nt) is not RegionTag.XII:
                continue
            clash = triple_pipeline_check(nt)
            if clash is not None:
                print(f"!! ROUTE DISAGREEMENT at {key}: {clash}", file=sys.stderr)
                continue
            closed = classify_triple(nt).verdict
            rows.append((x0, x1, y0, y1, closed))
            per_a[(x0, x1)] = per_a.get((x0, x1), 0) + 1
            if closed == "NotFrame":
                n_notframe += 1
            if len(rows) >= per_context:
                return rows, n_notframe
    return rows, n_notframe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--per-context", type=int, default=50)
    args = ap.parse_args()

    for tau in ("pi", "sqrt2", "sqrt3"):
        rows, n_notframe = collect(tau, args.per_context)
        print(f"# {tau}: {len(rows)} triples, {n_notframe} NotFrame")
        print(f"{tau.upper()}_TRIPLES = [")
        for x0, x1, y0, y1, verdict in rows:
            print(f'    (F("{x0}"), F("{x1}"), F("{y0}"), F("{y1}"), "{verdict}"),')
        print("]")


if __name__ == "__main__":
    main()

"""The scans that the solves in gaborbox replaced, kept as a test oracle.

`_search_obstruction_irrational` and `_xiii_candidates` are the nested-loop
certificate searches, and the four set operations are the pairwise
nested-loop versions that canonicalize through `PeriodicSet.make`.  They
are copied unchanged from the code they replaced; the differential tests
in `test_reference_scan.py` hold the faster paths to their output.
"""

from fractions import Fraction
from math import gcd
from typing import List

from gaborbox.classifier import RationalParams, _grid_units
from gaborbox.errors import OracleInconsistency
from gaborbox.exactnum import mod, rat
from gaborbox.lattice import Interval, NormalizedTriple, PeriodicSet


def _search_obstruction_irrational(nt: NormalizedTriple):
    """Find the (d1, d2) tuple passing the membership, window and count
    conditions; by exactness of the lattice there is at most one verdict."""
    a, b, c = nt.a, nt.b, nt.c
    f = nt.floor_cb
    ba = b - a
    matches = []
    s = 1
    while (s * ba - a).sign() < 0:  # number of gaps stays below a/(b-a)
        for d1 in range(s):
            d2 = s - 1 - d1
            if (c - (f * b + (d1 + 1) * ba)).sign() <= 0:
                continue
            if ((f * b + b - (d2 + 1) * ba) - c).sign() <= 0:
                continue
            m_ratio = (s * nt.c1 - nt.c0 + (d1 + 1) * ba).ratio(a)
            if m_ratio is None or m_ratio.denominator != 1:
                continue
            m = int(m_ratio)
            expr = c - (d1 + 1) * (f + 1) * ba - (d2 + 1) * f * ba
            e_ratio = expr.ratio(a)
            if e_ratio is None or e_ratio.denominator != 1:
                raise OracleInconsistency(
                    "collapse count is integral but the length combination "
                    "misses the coarse lattice"
                )
            modulus = a - s * ba
            base = nt.c1 - m * ba
            width = nt.c0 - (d1 + 1) * ba
            count = 0
            for k in range(1, s + 1):
                if (mod(k * base, modulus) - width).sign() < 0:
                    count += 1
            if count != d1:
                continue
            matches.append((d1, d2, m, count, expr))
        s += 1
    if len(matches) > 1:
        verdicts = {(e - a).is_zero() for (_, _, _, _, e) in matches}
        if len(verdicts) != 1:
            raise OracleInconsistency(
                f"conflicting obstruction tuples: {matches}"
            )
    return matches[0] if matches else None


def _xiii_candidates(nt: NormalizedTriple):
    """Yield (witness, excl_ok) for every obstruction candidate, in search
    order: case 6, case 7, then the case-8 tuples passing the structural
    conditions.  excl_ok is the final exclusion clause that separates
    NotFrame from a measure-critical frame."""
    p, q, gamma1, j0 = _grid_units(nt)
    f = nt.floor_cb
    g1 = gcd(p, gamma1)
    if j0 < g1:
        yield RationalParams(case_id=6), f * (g1 - j0) != g1
    g2 = gcd(p, gamma1 + q)
    if q - j0 < g2:
        yield RationalParams(case_id=7), (f + 1) * (g2 + j0 - q) != g2
    qp = q - p  # b-a in grid units
    s = 1
    while p - s * qp > 0:
        bd = p - s * qp
        for N in range(s + 1, p + 1):
            if bd % N:
                continue
            for d1 in range(s):
                d2 = s - 1 - d1
                for d3 in range(N - s):
                    d4 = N - s - 1 - d3
                    w = d1 + d3 + 1
                    val = N * gamma1 + w * qp
                    if val % p:
                        continue
                    if (s * val - w * p) % (N * p):
                        continue
                    if gcd(val, N * p) != p:
                        continue
                    count = sum(
                        1 for k in range(1, s + 1)
                        if 0 < (k * val) % (N * p) < w * p
                    )
                    if count != d1:
                        continue
                    delta = Fraction(j0) - (d1 + 1) * qp - Fraction(w * bd, N)
                    lim_low = -min(Fraction(p - j0), Fraction(bd, N))
                    lim_high = min(Fraction(j0 - qp), Fraction(bd, N))
                    if not (lim_low < delta < lim_high):
                        continue
                    witness = RationalParams(
                        case_id=8, d1=d1, d2=d2, d3=d3, d4=d4, N=N,
                        delta=nt.b * (delta / q), e_count=count,
                    )
                    yield witness, abs(delta) + Fraction(p, N * f + w) != Fraction(bd, N)
        s += 1



# ---------------------------------------------------------------------------
# PeriodicSet algebra (methods written as functions of the two operands)
# ---------------------------------------------------------------------------


def union(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    self._check(other)
    return PeriodicSet.make(self.period, list(self.intervals) + list(other.intervals))


def intersect(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    self._check(other)
    out: List[Interval] = []
    for alo, ahi in self.intervals:
        for blo, bhi in other.intervals:
            lo = alo if (alo - blo).sign() >= 0 else blo
            hi = ahi if (ahi - bhi).sign() <= 0 else bhi
            if (hi - lo).sign() > 0:
                out.append((lo, hi))
    return PeriodicSet.make(self.period, out)


def complement(self: PeriodicSet) -> PeriodicSet:
    gaps: List[Interval] = []
    cursor = rat(0)
    for lo, hi in self.intervals:
        if (lo - cursor).sign() > 0:
            gaps.append((cursor, lo))
        cursor = hi
    if (self.period - cursor).sign() > 0:
        gaps.append((cursor, self.period))
    return PeriodicSet.make(self.period, gaps)


def minus(self: PeriodicSet, other: PeriodicSet) -> PeriodicSet:
    return intersect(self, complement(other))

"""Closed-form frame classification.

Fourteen parameter regions cover all positive (a, b, c) with the window
[0, c).  Ten of them have one-line answers; the two generic dynamical
regions reduce to finite certificate searches (an obstruction tuple
(d1, d2) when the lattice ratio is irrational, three gcd/divisibility
cases when it is rational and c sits on the grid); and off-grid c with a
rational ratio resolves by rounding c to its two grid neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Tuple

from .errors import OracleInconsistency, RegionUnsupported
from .exactnum import ExactReal, floor_div, mod
from .lattice import NormalizedTriple, RegionTag, normalize, region_tag


@dataclass(frozen=True)
class GcdCondition:
    """Witness for the divisor-flavoured boundary regions (cases 1-5 and
    the X/XI edge rules); values maps symbol names to rendered numbers."""

    case_id: str
    values: Dict[str, str]


@dataclass(frozen=True)
class IrrationalParams:
    """Witness tuple for the irrational-ratio obstruction."""

    d1: int
    d2: int
    m: int
    e_count: int


@dataclass(frozen=True)
class RationalParams:
    """Witness for the on-grid rational obstruction (case 6, 7 or 8)."""

    case_id: int
    d1: Optional[int] = None
    d2: Optional[int] = None
    d3: Optional[int] = None
    d4: Optional[int] = None
    N: Optional[int] = None
    delta: Optional[ExactReal] = None
    e_count: Optional[int] = None


@dataclass(frozen=True)
class RecursionPair:
    low: "FrameDecision"
    high: "FrameDecision"


@dataclass(frozen=True)
class FrameDecision:
    verdict: str  # "Frame" | "NotFrame"
    region: RegionTag
    witness: object = None

    @property
    def is_frame(self) -> bool:
        return self.verdict == "Frame"


def _frame(region: RegionTag) -> FrameDecision:
    return FrameDecision("Frame", region)


def _not_frame(region: RegionTag, witness: object = None) -> FrameDecision:
    return FrameDecision("NotFrame", region, witness)


def classify(a: ExactReal, b: ExactReal, c: ExactReal) -> FrameDecision:
    return classify_triple(normalize(a, b, c))


def classify_triple(nt: NormalizedTriple) -> FrameDecision:
    a, b, c = nt.a, nt.b, nt.c
    tag = region_tag(nt)
    if tag is RegionTag.I:
        return _not_frame(tag)
    if tag is RegionTag.II:
        return _frame(tag) if (a - b).sign() <= 0 else _not_frame(tag)
    if tag is RegionTag.III:
        return _not_frame(tag)
    if tag is RegionTag.IV:
        return _frame(tag)
    if tag is RegionTag.V:
        return _frame(tag)
    if tag is RegionTag.VI:
        return _region_vi(nt)
    if tag is RegionTag.VII:
        return _region_vii(nt)
    if tag is RegionTag.VIII:
        return _frame(tag)
    if tag is RegionTag.IX:
        return _frame(tag)
    if tag is RegionTag.X:
        return _region_x(nt)
    if tag is RegionTag.XI:
        return _region_xi(nt)
    if tag is RegionTag.XII:
        w = cond_XII(nt)
        return _not_frame(tag, w) if w is not None else _frame(tag)
    if tag is RegionTag.XIII:
        w = cond_XIII(nt)
        return _not_frame(tag, w) if w is not None else _frame(tag)
    return classify_off_grid(nt)


# ---------------------------------------------------------------------------
# boundary regions with divisor rules
# ---------------------------------------------------------------------------


def _region_vi(nt: NormalizedTriple) -> FrameDecision:
    # c0 >= a and c0 > b-a: obstruction only on rational ratios
    if not nt.is_rational:
        return _frame(RegionTag.VI)
    p, q = nt.rational
    f = nt.floor_cb
    g = gcd(f + 1, p)
    gb = nt.b * Fraction(g, q)
    if g != f + 1:
        if (nt.c0 - (nt.b - gb)).sign() > 0:
            return _not_frame(RegionTag.VI, GcdCondition(
                "1", {"gcd(f+1,p)": str(g), "threshold": (nt.b - gb).render()}))
    else:
        thr = nt.b - gb + nt.b / q
        if (nt.c0 - thr).sign() > 0:
            return _not_frame(RegionTag.VI, GcdCondition(
                "2", {"gcd(f+1,p)": str(g), "threshold": thr.render()}))
    return _frame(RegionTag.VI)


def _region_vii(nt: NormalizedTriple) -> FrameDecision:
    # c0 <= b-a and c0 < a
    if nt.c0.is_zero():
        return _not_frame(RegionTag.VII, GcdCondition("3", {"c0": "0"}))
    if not nt.is_rational:
        return _frame(RegionTag.VII)
    p, q = nt.rational
    f = nt.floor_cb
    g = gcd(f, p)
    gb = nt.b * Fraction(g, q)
    if g != f:
        if (nt.c0 - gb).sign() < 0:
            return _not_frame(RegionTag.VII, GcdCondition(
                "4", {"gcd(f,p)": str(g), "threshold": gb.render()}))
    else:
        thr = gb - nt.b / q
        if (nt.c0 - thr).sign() < 0:
            return _not_frame(RegionTag.VII, GcdCondition(
                "5", {"gcd(f,p)": str(g), "threshold": thr.render()}))
    return _frame(RegionTag.VII)


def _region_x(nt: NormalizedTriple) -> FrameDecision:
    # c1 = 2a-b forces a rational ratio
    if not nt.is_rational:
        raise OracleInconsistency("c1 = 2a-b is impossible over an irrational ratio")
    p, q = nt.rational
    f = nt.floor_cb
    ok = f + 1 == p and (nt.c0 - (nt.b - nt.a + nt.b / q)).sign() <= 0
    if ok:
        return _frame(RegionTag.X)
    return _not_frame(RegionTag.X, GcdCondition(
        "X", {"p": str(p), "f+1": str(f + 1),
              "threshold": (nt.b - nt.a + nt.b / q).render()}))


def _region_xi(nt: NormalizedTriple) -> FrameDecision:
    if not nt.is_rational:
        raise OracleInconsistency("c1 = 0 is impossible over an irrational ratio")
    p, q = nt.rational
    f = nt.floor_cb
    ok = f == p and (nt.c0 - (nt.a - nt.b / q)).sign() >= 0
    if ok:
        return _frame(RegionTag.XI)
    return _not_frame(RegionTag.XI, GcdCondition(
        "XI", {"p": str(p), "f": str(f),
               "threshold": (nt.a - nt.b / q).render()}))


# ---------------------------------------------------------------------------
# irrational ratio, generic region
# ---------------------------------------------------------------------------


def _search_obstruction_irrational(nt: NormalizedTriple):
    """Find the (d1, d2) tuple passing the membership, window and count
    conditions; by exactness of the lattice there is at most one verdict.

    For each s the membership condition s*c1 - c0 + (d1+1)(b-a) = m*a is
    two rational equations in (m, d1+1), one per coordinate; a and b-a are
    independent over Q exactly when a/b is irrational, so Cramer's rule
    leaves one candidate per s instead of a scan over d1."""
    a, b, c = nt.a, nt.b, nt.c
    f = nt.floor_cb
    ba = b - a
    det = ba.x0 * a.x1 - a.x0 * ba.x1
    if det == 0:
        raise RegionUnsupported("the obstruction solve needs an irrational a/b")
    matches = []
    # s*(b-a) < a: the number of gaps stays below a/(b-a), never equal to it
    for s in range(1, floor_div(a, ba) + 1):
        r0 = s * nt.c1.x0 - nt.c0.x0
        r1 = s * nt.c1.x1 - nt.c0.x1
        m = (ba.x0 * r1 - r0 * ba.x1) / det
        d1 = (a.x0 * r1 - a.x1 * r0) / det - 1
        if m.denominator != 1 or d1.denominator != 1 or not 0 <= d1 < s:
            continue
        m, d1 = int(m), int(d1)
        d2 = s - 1 - d1
        if (c - (f * b + (d1 + 1) * ba)).sign() <= 0:
            continue
        if ((f * b + b - (d2 + 1) * ba) - c).sign() <= 0:
            continue
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
    if len(matches) > 1:
        verdicts = {(e - a).is_zero() for (_, _, _, _, e) in matches}
        if len(verdicts) != 1:
            raise OracleInconsistency(
                f"conflicting obstruction tuples: {matches}"
            )
    return matches[0] if matches else None


def cond_XII(nt: NormalizedTriple) -> Optional[IrrationalParams]:
    """NotFrame witness on the irrational generic region, if any."""
    hit = _search_obstruction_irrational(nt)
    if hit is None:
        return None
    d1, d2, m, count, expr = hit
    if (expr - nt.a).is_zero():
        return None  # invariant set exists but is measure-critical: frame
    return IrrationalParams(d1=d1, d2=d2, m=m, e_count=count)


# ---------------------------------------------------------------------------
# rational ratio with c on the grid
# ---------------------------------------------------------------------------


def _grid_units(nt: NormalizedTriple) -> Tuple[int, int, int, int]:
    """(p, q, gamma1, j0): everything in units of b/q."""
    if not (nt.is_rational and nt.c_on_grid):
        raise RegionUnsupported("the grid certificate needs a/b = p/q and c on the b/q grid")
    p, q = nt.rational
    gamma1 = nt.c1.ratio(nt.b) * q
    j0 = nt.c0.ratio(nt.b) * q
    if gamma1.denominator != 1 or j0.denominator != 1:
        raise OracleInconsistency("c is on the grid but c0 or c1 is not")
    return p, q, int(gamma1), int(j0)


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
    # Case 8: every condition depends on w = d1 + d3 + 1 alone.  gcd(q-p, p)
    # is 1, so val = N*gamma1 + w*(q-p) = 0 mod p fixes w mod p, and N <= p
    # leaves at most one w in [1, N-1]; the window count must equal d1,
    # which then fixes d3.  One candidate per (s, N), in the scan's order.
    inv_qp = pow(qp, -1, p)
    s = 1
    while p - s * qp > 0:
        bd = p - s * qp
        for N in range(s + 1, bd + 1):  # N divides bd
            if bd % N:
                continue
            w = (-N * gamma1 * inv_qp) % p
            if not 0 < w < N:
                continue
            val = N * gamma1 + w * qp
            Np = N * p
            if (s * val - w * p) % Np or gcd(val, Np) != p:
                continue
            d1 = sum(1 for k in range(1, s + 1) if 0 < (k * val) % Np < w * p)
            d3 = w - 1 - d1
            if d1 >= s or not 0 <= d3 < N - s:
                continue
            delta = Fraction(j0) - (d1 + 1) * qp - Fraction(w * bd, N)
            lim_low = -min(Fraction(p - j0), Fraction(bd, N))
            lim_high = min(Fraction(j0 - qp), Fraction(bd, N))
            if not (lim_low < delta < lim_high):
                continue
            witness = RationalParams(
                case_id=8, d1=d1, d2=s - 1 - d1, d3=d3, d4=N - s - 1 - d3, N=N,
                delta=nt.b * (delta / q), e_count=d1,
            )
            yield witness, abs(delta) + Fraction(p, N * f + w) != Fraction(bd, N)
        s += 1


def cond_XIII(nt: NormalizedTriple) -> Optional[RationalParams]:
    """NotFrame witness on the rational on-grid generic region, if any."""
    for witness, excl_ok in _xiii_candidates(nt):
        if excl_ok:
            return witness
    return None


def characterize_S_nonempty(nt: NormalizedTriple) -> bool:
    """Does a nonempty invariant set exist?  Answered from the closed-form
    characterizations, independently of the propagation construction."""
    tag = region_tag(nt)
    if tag in (RegionTag.V, RegionTag.IX):
        return False
    if tag in (RegionTag.X, RegionTag.XI):
        return True
    if tag is RegionTag.XII:
        return _search_obstruction_irrational(nt) is not None
    if tag is RegionTag.XIII:
        return any(True for _ in _xiii_candidates(nt))
    raise RegionUnsupported(f"no invariant-set characterization on region {tag}")


# ---------------------------------------------------------------------------
# rational ratio with c off the grid
# ---------------------------------------------------------------------------


def classify_off_grid(nt: NormalizedTriple) -> FrameDecision:
    """Round c down/up to the grid bZ/q; frame iff both neighbours are."""
    if not nt.is_rational or nt.c_on_grid:
        raise RegionUnsupported("off-grid rounding needs a/b = p/q and c off the b/q grid")
    _, q = nt.rational
    k = floor_div(nt.c * q, nt.b)
    c_down = nt.b * Fraction(k, q)
    c_up = nt.b * Fraction(k + 1, q)
    low = classify(nt.a, nt.b, c_down)
    high = classify(nt.a, nt.b, c_up)
    if RegionTag.XIV in (low.region, high.region):
        raise OracleInconsistency("a grid neighbour of c classified as off the grid")
    verdict = "Frame" if (low.is_frame and high.is_frame) else "NotFrame"
    return FrameDecision(verdict, RegionTag.XIV, RecursionPair(low, high))

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
from math import gcd, isqrt
from typing import Dict, List, Optional, Tuple

from .errors import OracleInconsistency, RegionUnsupported
from .exactnum import ExactReal, floor_div, mod
from .lattice import NormalizedTriple, RegionTag, grid_triple, grid_value, normalize


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
    decide = _DECIDE.get(nt.region)
    return decide(nt) if decide is not None else classify_with_S_existence(nt)[0]


def _fixed(verdict: str, region: RegionTag):
    """The decision of a region whose verdict needs no further look at the triple."""
    decision = FrameDecision(verdict, region)
    return lambda nt: decision


# ---------------------------------------------------------------------------
# boundary regions with divisor rules
# ---------------------------------------------------------------------------


def _c0_and_step(nt: NormalizedTriple):
    """c0 and the grid step b/q of a rational triple: integers in units of
    b/(q*D) when it has grid units, else the ExactReals themselves."""
    u = nt.units
    q = nt.rational[1]
    if u is None:
        return nt.c0, nt.b / q
    return u.C0, u.B // q


def _grid_point(nt: NormalizedTriple, n: int) -> str:
    """n grid steps, n*b/q, rendered for a witness."""
    return grid_value(nt.b, n, nt.rational[1]).render()


def _region_vi(nt: NormalizedTriple) -> FrameDecision:
    # c0 >= a and c0 > b-a: obstruction only on rational ratios
    if not nt.is_rational:
        return _frame(RegionTag.VI)
    p, q = nt.rational
    f = nt.floor_cb
    g = gcd(f + 1, p)
    c0, step = _c0_and_step(nt)
    # threshold b - g*b/q (case 1), one grid step higher when g = f+1 (case 2)
    case, n = ("1", q - g) if g != f + 1 else ("2", q - g + 1)
    if c0 > n * step:
        return _not_frame(RegionTag.VI, GcdCondition(
            case, {"gcd(f+1,p)": str(g), "threshold": _grid_point(nt, n)}))
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
    c0, step = _c0_and_step(nt)
    # threshold g*b/q (case 4), one grid step lower when g = f (case 5)
    case, n = ("4", g) if g != f else ("5", g - 1)
    if c0 < n * step:
        return _not_frame(RegionTag.VII, GcdCondition(
            case, {"gcd(f,p)": str(g), "threshold": _grid_point(nt, n)}))
    return _frame(RegionTag.VII)


def _region_x(nt: NormalizedTriple) -> FrameDecision:
    # c1 = 2a-b forces a rational ratio
    if not nt.is_rational:
        raise OracleInconsistency("c1 = 2a-b is impossible over an irrational ratio")
    p, q = nt.rational
    f = nt.floor_cb
    c0, step = _c0_and_step(nt)
    n = q - p + 1  # b - a + b/q
    if f + 1 == p and c0 <= n * step:
        return _frame(RegionTag.X)
    return _not_frame(RegionTag.X, GcdCondition(
        "X", {"p": str(p), "f+1": str(f + 1), "threshold": _grid_point(nt, n)}))


def _region_xi(nt: NormalizedTriple) -> FrameDecision:
    if not nt.is_rational:
        raise OracleInconsistency("c1 = 0 is impossible over an irrational ratio")
    p, _ = nt.rational
    f = nt.floor_cb
    c0, step = _c0_and_step(nt)
    n = p - 1  # a - b/q
    if f == p and c0 >= n * step:
        return _frame(RegionTag.XI)
    return _not_frame(RegionTag.XI, GcdCondition(
        "XI", {"p": str(p), "f": str(f), "threshold": _grid_point(nt, n)}))


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
        if c <= f * b + (d1 + 1) * ba:
            continue
        if f * b + b - (d2 + 1) * ba <= c:
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
            if mod(k * base, modulus) < width:
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
    return _xii_witness(nt, _search_obstruction_irrational(nt))


def _xii_witness(nt: NormalizedTriple, hit) -> Optional[IrrationalParams]:
    """The NotFrame witness a search result gives, if any."""
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
    u = nt.units
    if u is None or u.B != q:
        raise OracleInconsistency("c is on the grid but its grid units are not")
    return p, q, u.C1, u.C0


def _divisors_above(n: int, s: int) -> List[int]:
    """The divisors of n greater than s, ascending, from the pairs
    (i, n // i) with i <= sqrt(n)."""
    low, high = [], []
    # past i*s >= n neither i nor n // i exceeds s
    for i in range(1, min(isqrt(n), (n - 1) // s) + 1):
        if not n % i:
            if i > s:
                low.append(i)
            high.append(n // i)
    if low and low[-1] == high[-1]:
        high.pop()  # n = i*i
    return low + high[::-1]


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
    # which then fixes d3.  One candidate per (s, N), N running over the
    # divisors of bd above s in ascending order.
    inv_qp = pow(qp, -1, p)
    s, bd = 1, p - qp
    while bd > s:  # bd falls and s rises, so no N in (s, bd] is left after
        for N in _divisors_above(bd, s):
            w = (-N * gamma1 * inv_qp) % p
            if not 0 < w < N:
                continue
            val = N * gamma1 + w * qp
            Np = N * p
            if (s * val - w * p) % Np or gcd(val, Np) != p:
                continue
            # gcd(val, Np) = p makes val = p*v with gcd(v, N) = 1, so Np | k*val
            # would need N | k, which k <= s < N rules out: no k*val is 0 mod Np
            d1 = sum(1 for k in range(1, s + 1) if (k * val) % Np < w * p)
            d3 = w - 1 - d1
            if d1 >= s or not 0 <= d3 < N - s:
                continue
            # delta and its window limits, all times N: integers
            delta_n = N * (j0 - (d1 + 1) * qp) - w * bd
            if not (-min(N * (p - j0), bd) < delta_n < min(N * (j0 - qp), bd)):
                continue
            witness = RationalParams(
                case_id=8, d1=d1, d2=s - 1 - d1, d3=d3, d4=N - s - 1 - d3, N=N,
                delta=grid_value(nt.b, delta_n, N * q), e_count=d1,
            )
            # |delta| + p/(N*f + w) != bd/N, times N*(N*f + w) > 0
            yield witness, (bd - abs(delta_n)) * (N * f + w) != Np
        s, bd = s + 1, bd - qp


def _xiii_search(nt: NormalizedTriple) -> Tuple[Optional[RationalParams], bool]:
    """One walk of the candidates: the NotFrame witness, if any, and whether
    any candidate turned up at all (a nonempty invariant set)."""
    found = False
    for witness, excl_ok in _xiii_candidates(nt):
        if excl_ok:
            return witness, True
        found = True
    return None, found


def cond_XIII(nt: NormalizedTriple) -> Optional[RationalParams]:
    """NotFrame witness on the rational on-grid generic region, if any."""
    return _xiii_search(nt)[0]


def classify_with_S_existence(nt: NormalizedTriple) -> Tuple[FrameDecision, Optional[bool]]:
    """The decision and whether a nonempty invariant set exists (None where
    no closed form says): one search gives both on XII and on XIII, the
    tables give them elsewhere."""
    tag = nt.region
    if tag is RegionTag.XII:
        hit = _search_obstruction_irrational(nt)
        w, nonempty = _xii_witness(nt, hit), hit is not None
    elif tag is RegionTag.XIII:
        w, nonempty = _xiii_search(nt)
    else:
        return _DECIDE[tag](nt), _S_NONEMPTY.get(tag)
    return (_not_frame(tag, w) if w is not None else _frame(tag)), nonempty


def characterize_S_nonempty(nt: NormalizedTriple) -> bool:
    """Does a nonempty invariant set exist?  Answered from the closed-form
    characterizations, independently of the propagation construction."""
    nonempty = classify_with_S_existence(nt)[1]
    if nonempty is None:
        raise RegionUnsupported(f"no invariant-set characterization on region {nt.region}")
    return nonempty


# ---------------------------------------------------------------------------
# rational ratio with c off the grid
# ---------------------------------------------------------------------------


def classify_off_grid(nt: NormalizedTriple) -> FrameDecision:
    """Round c down/up to the grid bZ/q; frame iff both neighbours are."""
    if not nt.is_rational or nt.c_on_grid:
        raise RegionUnsupported("off-grid rounding needs a/b = p/q and c off the b/q grid")
    q = nt.rational[1]
    u = nt.units
    # k = floor(c*q/b): C // D in grid units; with c/b irrational there are none
    k = u.C // (u.B // q) if u is not None else floor_div(nt.c * q, nt.b)
    low = classify_triple(grid_triple(nt, k))
    high = classify_triple(grid_triple(nt, k + 1))
    if RegionTag.XIV in (low.region, high.region):
        raise OracleInconsistency("a grid neighbour of c classified as off the grid")
    verdict = "Frame" if (low.is_frame and high.is_frame) else "NotFrame"
    return FrameDecision(verdict, RegionTag.XIV, RecursionPair(low, high))


# the decision on every region with a closed form; XII and XIII need a
# certificate search (classify_with_S_existence)
_DECIDE = {
    RegionTag.I: _fixed("NotFrame", RegionTag.I),
    # a = c
    RegionTag.II: lambda nt: _frame(RegionTag.II) if nt.a <= nt.b else _not_frame(RegionTag.II),
    RegionTag.III: _fixed("NotFrame", RegionTag.III),
    RegionTag.IV: _fixed("Frame", RegionTag.IV),
    RegionTag.V: _fixed("Frame", RegionTag.V),
    RegionTag.VI: _region_vi,
    RegionTag.VII: _region_vii,
    RegionTag.VIII: _fixed("Frame", RegionTag.VIII),
    RegionTag.IX: _fixed("Frame", RegionTag.IX),
    RegionTag.X: _region_x,
    RegionTag.XI: _region_xi,
    RegionTag.XIV: classify_off_grid,
}
# regions whose invariant set is known to be empty or nonempty without a search
_S_NONEMPTY = {RegionTag.V: False, RegionTag.IX: False, RegionTag.X: True, RegionTag.XI: True}

"""The classifier that decided rational triples on ExactReals, kept as a
test oracle.

`_walk_diagram` is the region walk that compared the ExactReals a, b, c, c0
and c1; `classify_triple`, the boundary regions `_region_vi`, `_vii`, `_x`
and `_xi`, `cond_XIII` and `classify_off_grid` are the decisions that
compared c0 with thresholds built as ExactReals, read the grid indices off
c0 and c1 (`reference_scan._grid_units`), tried every N in case 8
(`reference_scan._xiii_candidates_n_scan`), and normalized both grid
neighbours of an off-grid c; `build_grid_model` is the grid oracle's model
built from c/b.  Triples with a/b rational and c/b irrational have no grid
units, and the boundary rules and `classify_off_grid` here are also the
route they took (c0 against n*b/q and floor_div(c*q, b) on ExactReals)
before they were decided on their integer pairs.  `_search_obstruction_irrational`
and `_basis_coords` are the XII search that solved for (u, v) in `Fraction`s
and took its window conditions and counts on ExactReals, before it read the
triple's integer pairs.  They are copied unchanged from the code they replaced, except that
`classify_triple` takes its region from this walk instead of the triple's
`region` field, and `cond_XIII` names the N-scan.  The differential tests
in `test_reference_classifier.py` hold the integer grid-unit paths and the
pair search to their output.
"""

from fractions import Fraction
from math import gcd
from typing import Optional, Tuple

from gaborbox.classifier import (
    FrameDecision,
    GcdCondition,
    RationalParams,
    RecursionPair,
    _frame,
    _not_frame,
    cond_XII,
)
from gaborbox.dynsys import maps_defined
from gaborbox.errors import OracleInconsistency, RegionUnsupported
from gaborbox.exactnum import ExactReal, floor_div, mod
from gaborbox.lattice import NormalizedTriple, RegionTag, normalize
from gaborbox.oracle import GridModel
from reference_scan import _xiii_candidates_n_scan


def _walk_diagram(nt: NormalizedTriple) -> RegionTag:
    """Walk the classification diagram; every positive triple gets one tag."""
    a, b, c = nt.a, nt.b, nt.c
    ac = a._cmp(c)
    if ac > 0:
        return RegionTag.I
    if ac == 0:
        return RegionTag.II
    # now a < c
    if b <= a:
        return RegionTag.III
    if b >= c:
        return RegionTag.IV
    # now a < b < c
    c0, c1 = nt.c0, nt.c1
    ba = b - a
    if c0 >= a:
        return RegionTag.V if c0 <= ba else RegionTag.VI
    if c0 <= ba:
        return RegionTag.VII
    # now b - a < c0 < a
    if nt.floor_cb == 1:
        return RegionTag.VIII
    s = c1._cmp(a + a - b)
    if s > 0:
        return RegionTag.IX
    if s == 0:
        return RegionTag.X
    if c1.is_zero():
        return RegionTag.XI
    # now 0 < c1 < 2a - b
    if not nt.is_rational:
        return RegionTag.XII
    return RegionTag.XIII if nt.c_on_grid else RegionTag.XIV


def classify(a: ExactReal, b: ExactReal, c: ExactReal) -> FrameDecision:
    return classify_triple(normalize(a, b, c))


def classify_triple(nt: NormalizedTriple) -> FrameDecision:
    tag = _walk_diagram(nt)
    if tag is RegionTag.I:
        return _not_frame(tag)
    if tag is RegionTag.II:
        return _frame(tag) if nt.a <= nt.b else _not_frame(tag)
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


def _region_vi(nt: NormalizedTriple) -> FrameDecision:
    # c0 >= a and c0 > b-a: obstruction only on rational ratios
    if not nt.is_rational:
        return _frame(RegionTag.VI)
    p, q = nt.rational
    f = nt.floor_cb
    g = gcd(f + 1, p)
    gb = nt.b * Fraction(g, q)
    if g != f + 1:
        if nt.c0 > nt.b - gb:
            return _not_frame(RegionTag.VI, GcdCondition(
                "1", {"gcd(f+1,p)": str(g), "threshold": (nt.b - gb).render()}))
    else:
        thr = nt.b - gb + nt.b / q
        if nt.c0 > thr:
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
        if nt.c0 < gb:
            return _not_frame(RegionTag.VII, GcdCondition(
                "4", {"gcd(f,p)": str(g), "threshold": gb.render()}))
    else:
        thr = gb - nt.b / q
        if nt.c0 < thr:
            return _not_frame(RegionTag.VII, GcdCondition(
                "5", {"gcd(f,p)": str(g), "threshold": thr.render()}))
    return _frame(RegionTag.VII)


def _region_x(nt: NormalizedTriple) -> FrameDecision:
    # c1 = 2a-b forces a rational ratio
    if not nt.is_rational:
        raise OracleInconsistency("c1 = 2a-b is impossible over an irrational ratio")
    p, q = nt.rational
    f = nt.floor_cb
    ok = f + 1 == p and nt.c0 <= nt.b - nt.a + nt.b / q
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
    ok = f == p and nt.c0 >= nt.a - nt.b / q
    if ok:
        return _frame(RegionTag.XI)
    return _not_frame(RegionTag.XI, GcdCondition(
        "XI", {"p": str(p), "f": str(f),
               "threshold": (nt.a - nt.b / q).render()}))


def cond_XIII(nt: NormalizedTriple) -> Optional[RationalParams]:
    """NotFrame witness on the rational on-grid generic region, if any."""
    for witness, excl_ok in _xiii_candidates_n_scan(nt):
        if excl_ok:
            return witness
    return None


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


def build_grid_model(nt: NormalizedTriple) -> GridModel:
    # c on the grid implies a/b = p/q; of VIII-XIV this leaves out XII and XIV
    if not (maps_defined(nt) and nt.c_on_grid):
        raise RegionUnsupported(
            f"no grid route on region {nt.region} with this lattice: it needs "
            f"a/b = p/q, c on the b/q grid and the maps defined"
        )
    p, q = nt.rational
    cb = nt.c.ratio(nt.b)
    k_c = cb * q
    f = nt.floor_cb
    j0 = k_c.numerator - f * q
    j1 = (f * q) % p
    e = k_c.numerator % p
    if k_c.denominator != 1 or not 0 < j0 < p or e != (j0 + j1) % p:
        raise OracleInconsistency(
            f"grid indices of c break their identities: c/b*q = {k_c}, j0 = {j0}"
        )
    return GridModel(nt, p, q, f, j0, j1, e)


def _search_obstruction_irrational(nt: NormalizedTriple):
    """Find the (d1, d2) tuple passing the membership, window and count
    conditions; by exactness of the lattice there is at most one verdict.

    a and b are independent over Q exactly when a/b is irrational, so every
    value of the field has rational coordinates in the basis (a, b).  There
    c1 = f*b - k*a (k = floor(f*b/a)) and c0 = u*a + v*b, and the membership
    condition s*c1 - c0 + (d1+1)(b-a) = m*a reads, coefficient by
    coefficient,

        b:  d1 + 1 = v - f*s
        a:  m = (f - k)*s - u - v

    Both slopes are integers, so m and d1 are integral for every s or for
    none: exactly when c0 lies in aZ + bZ.  1 <= d1+1 <= s then cuts s to
    v/(f+1) <= s <= (v-1)/f, and only the s in that interval pay the window
    conditions and the window count."""
    a, b, c = nt.a, nt.b, nt.c
    f = nt.floor_cb
    det = a.x0 * b.x1 - a.x1 * b.x0
    if det == 0:
        raise RegionUnsupported("the obstruction solve needs an irrational a/b")
    if f < 1:
        raise RegionUnsupported("the obstruction search needs c >= b")
    ka, kb = _basis_coords(nt.c1, a, b, det)  # (-k, f)
    if kb != f or ka.denominator != 1:
        raise OracleInconsistency("c1 is not f*b reduced mod a")
    u, v = _basis_coords(nt.c0, a, b, det)
    if u.denominator != 1 or v.denominator != 1:
        return None
    m_slope, u, v = f + int(ka), int(u), int(v)
    ba = b - a
    matches = []
    # s*(b-a) < a: the number of gaps stays below a/(b-a), never equal to it
    s_hi = min(floor_div(a, ba), (v - 1) // f)
    for s in range(max(1, -(-v // (f + 1))), s_hi + 1):
        d1 = v - f * s - 1
        m = m_slope * s - u - v
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


def _basis_coords(x: ExactReal, a: ExactReal, b: ExactReal,
                  det: Fraction) -> Tuple[Fraction, Fraction]:
    """(u, v) with x = u*a + v*b, for det = a.x0*b.x1 - a.x1*b.x0 != 0."""
    return (x.x0 * b.x1 - x.x1 * b.x0) / det, (a.x0 * x.x1 - a.x1 * x.x0) / det

"""The classifier that decided rational triples on ExactReals, kept as a
test oracle.

The boundary rules `_region_vi`, `_vii`, `_x` and `_xi` compare c0 with
thresholds built as ExactReals, also where a/b is rational and c/b is not;
`classify_off_grid` takes floor_div(c*q, b) on ExactReals and normalizes
both grid neighbours of an off-grid c; `build_grid_model` builds the grid
oracle's model from c/b.  They are copied unchanged from the code they
replaced.  `classify_triple` reads its region off `reference_shapes`'
walk, decides XII by `reference_scan`'s nested scan and XIII by
`cond_XIII`, which walks `reference_scan._xiii_candidates_uncut`; so no
decision here runs a live search or walk.

    job         reference here                  tests (test_reference_classifier.py)
    classifier  classify_triple and the rules   all but test_xii_search_*: verdict,
                it dispatches to                region, witness and JSON payload
    grid model  build_grid_model                test_rational*: field by field
"""

from fractions import Fraction
from math import gcd
from typing import Optional

from gaborbox.classifier import (
    FrameDecision,
    GcdCondition,
    RationalParams,
    RecursionPair,
    _frame,
    _not_frame,
)
from gaborbox.dynsys import maps_defined
from gaborbox.errors import OracleInconsistency, RegionUnsupported
from gaborbox.exactnum import ExactReal, floor_div
from gaborbox.lattice import NormalizedTriple, RegionTag, normalize
from gaborbox.oracle import GridModel
import reference_shapes
from reference_scan import _search_obstruction_irrational, _xiii_candidates_uncut, xii_result


def classify(a: ExactReal, b: ExactReal, c: ExactReal) -> FrameDecision:
    return classify_triple(normalize(a, b, c))


def classify_triple(nt: NormalizedTriple) -> FrameDecision:
    tag = reference_shapes.normalize(nt.a, nt.b, nt.c).region
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
        w, _ = xii_result(nt, _search_obstruction_irrational(nt))
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
    for witness, excl_ok in _xiii_candidates_uncut(nt):
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

"""Differential tests: the classifier deciding rational triples in integer
grid units, and the boundary rules and the off-grid rounding of triples
with a/b rational and c/b irrational on their integer pairs, against the
ExactReal classifier they replaced (`reference_classifier.py`); and the XII
search on the named triples and the certificate pools against its parent,
the window-sign solve, and on seeded lattice draws against the nested scan
(`reference_scan.py`).

Every decision is compared whole: verdict, region and witness, with the
GcdCondition values rendered as the JSON payload renders them (the
reference builds them rendered), the case-8 delta and both neighbours of
an off-grid c, and again as its JSON payload.  Every grid model is compared
field by field.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

import reference_classifier as ref
import reference_scan
from gaborbox.classifier import (
    GcdCondition,
    RationalParams,
    RecursionPair,
    _search_obstruction_irrational,
    classify_triple,
)
from gaborbox.cli import _decision_json, _witness_json
from gaborbox.errors import RegionUnsupported
from gaborbox.exactnum import pi_context, rat, surd_context
from gaborbox.lattice import RegionTag, normalize
from gaborbox.oracle import build_grid_model
from test_reference_dynsys import XII_CERTIFICATE_POOLS
from test_reference_scan import _lattice_draw

SQ2 = surd_context(2)
PI = pi_context()
B_VALUES = (F(1), F(3, 2), F(7, 5))


def _a_values(qmax):
    """Reduced a = p/q with q <= qmax in (0, 2): a > b occurs for every b."""
    return sorted({F(p, q) for q in range(1, qmax + 1) for p in range(1, 2 * q)})


def _c_values(q, cmax=8):
    """c in (0, cmax) on step 1/(2q), and on the off-grid steps 1/(3q), 1/(5q)."""
    return sorted({F(k, m * q) for m in (2, 3, 5) for k in range(1, cmax * m * q)})


def _rational_cells(qmax, b_values=B_VALUES, cmax=8):
    for b in b_values:
        for a in _a_values(qmax):
            for c in _c_values(a.denominator, cmax):
                yield a, b, c


def _rendered(d):
    """The decision with the values of each GcdCondition rendered as the JSON
    payload renders them: the shape the reference classifier builds them in."""
    w = d.witness
    if isinstance(w, GcdCondition):
        w = w._replace(values=_witness_json(w)["values"])
    elif isinstance(w, RecursionPair):
        w = RecursionPair(_rendered(w.low), _rendered(w.high))
    return d._replace(witness=w)


def _reference_json(d):
    """The JSON payload of a reference decision, whose GcdCondition values
    are rendered already."""
    w = d.witness
    if isinstance(w, GcdCondition):
        return {**_decision_json(d._replace(witness=None)),
                "witness": {"kind": "gcd-condition", "case": w.case_id, "values": w.values}}
    if isinstance(w, RecursionPair):
        return {**_decision_json(d._replace(witness=None)),
                "witness": {"kind": "recursion-pair", "low": _reference_json(w.low),
                            "high": _reference_json(w.high)}}
    return _decision_json(d)


def _same_decision(got, want, triple):
    assert _rendered(got) == want, triple
    assert _decision_json(got) == _reference_json(want), triple


def _same(a, b, c, tally):
    nt = normalize(a, b, c)
    got, want = classify_triple(nt), ref.classify_triple(nt)
    _same_decision(got, want, (a, b, c))
    try:
        model = ref.build_grid_model(nt)
    except RegionUnsupported:
        with pytest.raises(RegionUnsupported):
            build_grid_model(nt)
    else:
        assert build_grid_model(nt) == model, (a, b, c)
        tally["grid model"] += 1
    _count(got, tally)


def _count(d, tally):
    tally[str(d.region), d.verdict] += 1
    w = d.witness
    if isinstance(w, GcdCondition):
        tally["case " + w.case_id] += 1
    elif isinstance(w, RationalParams):
        tally[f"case {w.case_id}"] += 1
    elif isinstance(w, RecursionPair):
        _count(w.low, tally)
        _count(w.high, tally)


RATIONAL_REGIONS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI",
                    "XIII", "XIV")
CASES = ("1", "2", "3", "4", "5", "6", "7", "8", "X", "XI")


def _covers_everything(tally):
    regions = {region for key in tally if isinstance(key, tuple) for region in key[:1]}
    assert set(RATIONAL_REGIONS) <= regions, sorted(regions)
    for region in ("VI", "VII", "X", "XI", "XIII", "XIV"):
        assert tally[region, "Frame"] and tally[region, "NotFrame"], region
    assert all(tally["case " + case] for case in CASES), tally
    assert tally["grid model"]


def test_rational_triples_match_reference():
    tally = Counter()
    for a, b, c in _rational_cells(qmax=7):
        _same(rat(a), rat(b), rat(c), tally)
    _covers_everything(tally)


@pytest.mark.slow
def test_rational_triples_match_reference_q_le_20():
    tally = Counter()
    for a, b, c in _rational_cells(qmax=20):
        _same(rat(a), rat(b), rat(c), tally)
    _covers_everything(tally)


@pytest.mark.parametrize("ctx", [SQ2, PI], ids=["sqrt2", "pi"])
def test_rationals_held_in_irrational_contexts_match_reference(ctx):
    tally = Counter()
    for a, b, c in _rational_cells(qmax=4):
        _same(ctx.num(a), ctx.num(b), ctx.num(c), tally)
    _covers_everything(tally)


@pytest.mark.parametrize("c_in_sqrt2", [False, True], ids=["c-rational", "c-in-Q-sqrt2"])
def test_rational_ratio_of_irrationals_matches_reference(c_in_sqrt2):
    # a = (p/q)*sqrt2 and b = sqrt2: c/b is rational only when c is in Q*sqrt2,
    # so a rational c leaves the triple without grid units
    tally = Counter()
    for a, _, c in _rational_cells(qmax=5, b_values=(1,)):
        a, b, c = SQ2.num(0, a), SQ2.num(0, 1), SQ2.num(0, c) if c_in_sqrt2 else rat(c)
        assert normalize(a, b, c).form.integral is c_in_sqrt2
        _same(a, b, c, tally)
    for region in ("VI", "VII", "X", "XI", "XIV") + ("XIII",) * c_in_sqrt2:
        assert tally[region, "Frame"] and tally[region, "NotFrame"], region


# -- the XII search on integer pairs ---------------------------------------------------

def _same_xii_search(nt, tally, search=reference_scan._search_obstruction_irrational_signs):
    """The witness and the hit or miss of a search in `reference_scan.py`, by
    default the solve that took both window conditions as per-s signs;
    tallies what its hit decides."""
    assert nt.region is RegionTag.XII, nt
    want = search(nt)
    assert _search_obstruction_irrational(nt) == reference_scan.xii_result(nt, want), \
        (nt.a, nt.b, nt.c)
    if want is None:
        tally["no hit"] += 1
    else:
        tally["critical" if (want[4] - nt.a).is_zero() else "NotFrame"] += 1


def test_xii_search_matches_reference_on_certificate_pools():
    # the perfbench certificates workload's XII rungs, c = 7/2 held in the
    # context like a and b
    tally = Counter()
    for (name, _), pool in XII_CERTIFICATE_POOLS.items():
        for x0, x1 in pool:
            ctx = PI if name == "pi" else surd_context(int(name[len("sqrt"):]))
            _same_xii_search(normalize(ctx.num(x0, x1), ctx.num(1), ctx.num(F(7, 2))), tally)
    assert tally["no hit"] == sum(map(len, XII_CERTIFICATE_POOLS.values()))


def test_xii_search_matches_reference_on_named_triples():
    tally = Counter()
    # the many-survivor family a = 239/338*sqrt2, b = 1, c = 3 + v*(1 - a) at v = 100
    a = SQ2.num(0, F(239, 338))
    _same_xii_search(normalize(a, rat(1), 3 + 100 * (1 - a)), tally)
    assert tally["NotFrame"] == 1
    # a measure-critical frame (expr = a) and a planted obstruction over pi
    _same_xii_search(normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))), tally)
    _same_xii_search(normalize(PI.num(0, F(1, 4)), rat(1), PI.num(11, F(-7, 4))), tally)
    assert tally == {"NotFrame": 2, "critical": 1}


@pytest.mark.parametrize("ctx", [SQ2, surd_context(3), PI], ids=["sqrt2", "sqrt3", "pi"])
def test_xii_search_matches_reference_on_seeded_draws(ctx):
    # the lattice draws against the nested scan over every s and tuple
    tally = Counter()
    for seed in (1, 2, 3):
        for nt in _lattice_draw(ctx, seed, 40):
            _same_xii_search(nt, tally, search=reference_scan._search_obstruction_irrational)
    assert tally["no hit"] and tally["NotFrame"] and tally["critical"], tally


# -- boundary rules and off-grid rounding on integer pairs ---------------------------

def _irrational_c_draw(ctx, seed, count):
    """Triples with a = (p/q)*b < b and c/b irrational: c sits a seventh, a
    sixtieth or a thousandth of tau (of 1 when b is irrational) off a grid
    point k*b/q past b, where every boundary threshold lies."""
    rng = random.Random(seed)
    while count:
        b = rng.choice([rat(F(rng.randint(1, 5), rng.randint(1, 3))),
                        ctx.num(F(rng.randint(-1, 3), rng.randint(1, 3)),
                                F(rng.randint(1, 4), rng.randint(1, 3)))])
        if b.sign() <= 0:
            continue
        q = rng.randint(2, 9)
        p = rng.randint(1, q - 1)
        off = ctx.num(1) if b.x1 else ctx.num(0, 1)
        c = b * F(rng.randint(q + 1, 9 * q), q) + off * F(rng.choice([-1, 1]),
                                                        rng.choice([7, 60, 1000]))
        if c.sign() > 0:
            count -= 1
            yield normalize(b * F(p, q), b, c)


@pytest.mark.parametrize("ctx", [SQ2, surd_context(3), PI], ids=["sqrt2", "sqrt3", "pi"])
def test_irrational_c_over_a_rational_ratio_matches_reference(ctx):
    # the sign of q*C0 - n*B and the pair floor of q*C over B, against c0
    # compared with n*b/q and floor_div(c*q, b) on ExactReals
    tally = Counter()
    for seed in (1, 2, 3):
        for nt in _irrational_c_draw(ctx, seed, 200):
            assert not nt.form.integral, nt
            got, want = classify_triple(nt), ref.classify_triple(nt)
            _same_decision(got, want, (nt.a, nt.b, nt.c))
            _count(got, tally)
    for region in ("VI", "VII", "X", "XI", "XIV"):
        assert tally[region, "Frame"] and tally[region, "NotFrame"], (region, tally)
    assert all(tally["case " + case] for case in ("1", "2", "4", "5", "X", "XI")), tally


def _off_ratio_draw(ctx, seed, count):
    """(source region, triple): a = (p/q)*b, b and c = k*b/q tagged X or XI,
    then a moved off p/q by a sixtieth, a thousandth or a millionth of tau
    (of 1 when b is irrational), so that c1 lands next to 2a - b or 0."""
    rng = random.Random(seed)
    while count:
        b = rng.choice([rat(F(rng.randint(1, 5), rng.randint(1, 3))),
                        ctx.num(F(rng.randint(-1, 3), rng.randint(1, 3)),
                                F(rng.randint(1, 4), rng.randint(1, 3)))])
        if b.sign() <= 0:
            continue
        q = rng.randint(3, 12)
        a, c = b * F(rng.randint(q // 2 + 1, q - 1), q), b * F(rng.randint(2 * q, 9 * q), q)
        region = normalize(a, b, c).region
        if region in (RegionTag.X, RegionTag.XI):
            count -= 1
            off = ctx.num(1) if b.x1 else ctx.num(0, 1)
            yield region, normalize(a + off * F(rng.choice([-1, 1]),
                                                rng.choice([60, 1000, 10**6])), b, c)


@pytest.mark.parametrize("ctx", [SQ2, surd_context(3), PI], ids=["sqrt2", "sqrt3", "pi"])
def test_irrational_ratio_next_to_x_and_xi_matches_reference(ctx):
    # the reference walk compares c1 with 2a - b and with 0 on ExactReals,
    # and its X and XI rules raise on an irrational ratio: on these draws
    # neither tag is reached, and the decisions match
    tally = Counter()
    for seed in (1, 2, 3):
        for source, nt in _off_ratio_draw(ctx, seed, 100):
            assert not nt.is_rational, nt
            got = classify_triple(nt)
            _same_decision(got, ref.classify_triple(nt), (nt.a, nt.b, nt.c))
            tally[str(source), str(got.region)] += 1
    # a moved either way off both tags
    assert set(tally) == {(x, y) for x in ("X", "XI") for y in ("IX", "XII")}, tally

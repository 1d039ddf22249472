"""Differential tests: compute_S against the marches and the eager marks it
replaced (`reference_dynsys.py`), report field by field, and the two live
marches step by step against the ones they replaced.  On region XIII the
live march runs on integers in units of b/q and its cyclic marks derive their
points when read; on region XII it carries one hole start and no step cap.
Neither keeps a covered set, which rests on the holes of a chain being
pairwise disjoint, also tested here.  compute_S builds S once, in integer
grid units on a rational triple, keeps it so (S_units) and maps it to the
reals, like the chain, only when read.  compute_D, the measure identity and
surgery_report work in the units of the S they are handed: each is held to
its ExactReal reference both on the reference's S over the reals and on the
report's own S_units in grid units."""

import random
from collections import Counter
from fractions import Fraction as F
from math import gcd
from operator import itemgetter

import pytest

import reference_dynsys as ref
from gaborbox import dynsys, exactnum
from gaborbox.dynsys import (
    HoleChainStep,
    HoleStatus,
    _grid_reals,
    compute_D,
    compute_S,
    hole_chain,
    measure_identity,
    measure_identity_lhs,
    surgery_report,
)
from gaborbox.errors import GaborBoxError, PrecisionExhausted
from gaborbox.exactnum import floor_div, pi_context, rat, surd_context
from gaborbox.lattice import PeriodicSet, RegionTag, normalize
from gaborbox.oracle import on_grid_survey, triple_pipeline_check
from test_acceptance import PI_TRIPLES, SQRT2_TRIPLES, SQRT3_TRIPLES
from test_reference_scan import _xii_draw

SQRT2 = surd_context(2)


def _value(x):
    """An ExactReal as its value and its rendering (contexts of equal
    rational values may differ and are not observable)."""
    return None if x is None else (x, x.render())


def _set(E):
    return _value(E.period), tuple((_value(lo), _value(hi)) for lo, hi in E.intervals)


def _chain(steps):
    return [(step.index, _set(step.hole), step.status) for step in steps]


def _report(rep):
    """Every field of an InvariantSetReport, the marks' points as read."""
    m, x = rep.marks, rep.rational_extras
    return {
        "S": _set(rep.S),
        "chain": _chain(rep.chain),
        "Ya": _value(rep.Ya),
        "theta": _value(rep.theta),
        "marks": None if m is None else (
            m.kind, tuple(map(_value, m.points)), _value(m.generator), m.order),
        "extras": None if x is None else (
            x.N1, x.N2, _value(x.delta), _value(x.delta_prime), _value(x.h)),
    }


def _assert_same_report(nt):
    """Returns the reference report."""
    want = ref.compute_S(nt)
    new, old = _report(compute_S(nt)), _report(want)
    for field in new:
        assert new[field] == old[field], (field, nt)
    return want


def _outcome(f, *args):
    """The report f returns, or the error it raises."""
    try:
        return _report(f(*args))
    except GaborBoxError as e:
        return type(e), str(e)


def _reals(nt, E):
    """E over the reals: mapped from grid units when its period is an int."""
    return _grid_reals(nt, E)(E) if type(E.period) is int else E


def _assert_same_on(nt, S, E=None, chain=None):
    """compute_D, the measure identity and surgery_report on E, which is S
    itself (the default) or S in grid units, against their ExactReal
    references on S; a D in grid units is mapped to the reals to compare.  The
    live report reads the chain of the triple's own march, so the reference's
    surgery gets that chain too, the reference march's unless one is given."""
    E = S if E is None else E
    assert _set(_reals(nt, compute_D(nt, E))) == _set(ref.compute_D(nt, S)), nt
    assert _value(measure_identity_lhs(nt, E)) == _value(ref.measure_identity_lhs(nt, S)), nt
    assert measure_identity(nt, E) is ref.measure_identity(nt, S), nt
    chain = ref.compute_S(nt).chain if chain is None else chain
    assert _outcome(surgery_report, nt, E) == _outcome(ref.surgery_report, nt, S, chain)


def _assert_same_from_S(nt):
    """The report of compute_S, which builds S once in grid units, and every
    stage run again on the reference's ExactReal S and on the report's own
    S_units."""
    want = _assert_same_report(nt)
    if not want.S.is_empty:
        _assert_same_on(nt, want.S)
        E = compute_S(nt).S_units
        assert type(E.period) is int, nt
        _assert_same_on(nt, want.S, E)


def _on_sets(nt):
    """S in grid units, the complement of the holes of the parent march on
    PeriodicSets, and that march's chain over the reals."""
    steps = ref._propagate_rational_on_sets(nt)
    A = nt.form.A[0]
    S = PeriodicSet.make(A, [iv for hole, _ in steps for iv in hole.intervals]).complement()
    if S.is_empty:
        steps.append((PeriodicSet.full(A), HoleStatus.SENTINEL))
    real = _grid_reals(nt, *(hole for hole, _ in steps))
    return S, tuple(HoleChainStep(i, real(hole), status)
                    for i, (hole, status) in enumerate(steps))


def _assert_same_as_march_on_sets(nt):
    """compute_S's S_units and chain against the parent march, and every
    stage run on a nonempty S against its ExactReal reference (the surgery
    report holds the chain).  Returns S."""
    S, chain = _on_sets(nt)
    rep = compute_S(nt)
    assert rep.S_units == S, nt
    if S.is_empty:
        assert _chain(rep.chain) == _chain(chain), nt
    else:
        _assert_same_on(nt, _reals(nt, S), S, chain)
    return S


def _xiii_triples(qmax, unit, bs):
    """Every on-grid XIII triple with a = (p/q)*unit, p/q < 2 and q <= qmax,
    b in bs and c in (0, 8) on the grid b/q' of a/b = p'/q'."""
    eight = rat(8)
    for b in bs:
        for q in range(1, qmax + 1):
            for p in range(1, 2 * q):
                if gcd(p, q) != 1:
                    continue
                a = unit * F(p, q)
                q_grid = a.ratio(b).denominator
                k = 1
                while (c := b * F(k, q_grid)) < eight:
                    nt = normalize(a, b, c)
                    if nt.region is RegionTag.XIII:
                        yield nt
                    k += 1


def _rational(qmax):
    return _xiii_triples(qmax, rat(1), (rat(1), rat(F(3, 2)), rat(F(7, 5))))


def test_grid_unit_stages_match_on_grid_q_le_16():
    regions = Counter()
    for nt in on_grid_survey(16, 1, 8, regions=(RegionTag.X, RegionTag.XI, RegionTag.XIII)):
        regions[nt.region] += 1
        _assert_same_from_S(nt)
    assert set(regions) == {RegionTag.X, RegionTag.XI, RegionTag.XIII}
    assert sum(regions.values()) > 800


def test_grid_unit_stages_match_off_grid_c():
    # X and XI do not need c on the b/q grid: their units are b/(qD), D = 3
    seen = 0
    for q in range(2, 9):
        for p in range(1, q):
            for k in range(3 * q + 1, 24 * q):
                nt = normalize(rat(F(p, q)), rat(1), rat(F(k, 3 * q)))
                if nt.region in (RegionTag.X, RegionTag.XI) and nt.form.B == (3 * q, 0):
                    seen += 1
                    _assert_same_from_S(nt)
    assert seen > 100


def test_off_grid_S_takes_the_reals_path():
    nt = normalize(rat(F(13, 17)), rat(1), rat(F(77, 17)))
    S = compute_S(nt).S
    _assert_same_on(nt, S)
    (lo, hi), *rest = S.intervals
    # an endpoint half a grid step off, and one with a tau coefficient
    for moved in (hi - F(1, 34), SQRT2.num(0, F(2, 17))):
        _assert_same_on(nt, PeriodicSet(S.period, ((lo, moved), *rest)))


@pytest.mark.parametrize("c, region", [(10, RegionTag.X), (14, RegionTag.XI),
                                       (18, RegionTag.XIII)])
def test_stages_take_S_in_grid_units(c, region):
    # the X0 of a equals a as a number here, so only the type of the period
    # tells an S in grid units from one over the reals
    nt = normalize(rat(3), rat(4), rat(c))
    assert nt.region is region and nt.form.A[0] == nt.a
    rep = compute_S(nt)
    E = rep.S_units
    assert type(E.period) is int
    assert _set(_grid_reals(nt, E)(E)) == _set(rep.S)
    assert measure_identity(nt, E) is measure_identity(nt, rep.S)
    assert _value(measure_identity_lhs(nt, E)) == _value(measure_identity_lhs(nt, rep.S))
    D = compute_D(nt, E)
    assert type(D.period) is int
    assert _set(_grid_reals(nt, D)(D)) == _set(compute_D(nt, rep.S))


def test_rational_xiii_reports_match_q_le_10():
    triples = list(_rational(10))
    assert len(triples) > 1000
    for nt in triples:
        _assert_same_report(nt)


@pytest.mark.slow
def test_rational_xiii_reports_match_q_le_24():
    # the reference report up to q = 16; past it the oracle march takes
    # most of the time, so the reports are held to the parent march and the
    # reference stages
    kinds = Counter()
    for nt in _rational(24):
        if nt.a.x0.denominator <= 16:
            _assert_same_report(nt)
        else:
            kinds[_assert_same_as_march_on_sets(nt).is_empty] += 1
    assert set(kinds) == {True, False}, kinds


def test_sqrt2_scaled_xiii_reports_match():
    # a = (p/q)*sqrt(2), b = sqrt(2): the grid values carry a tau coefficient
    root2 = SQRT2.num(0, 1)
    triples = list(_xiii_triples(10, root2, (root2,)))
    assert len(triples) > 100
    for nt in triples:
        _assert_same_from_S(nt)


# the perfbench certificates workload's XIII pools: a = p/(p+4), b = 1,
# c = k/(p+4), k per (p, kind)
CERTIFICATE_POOLS = {
    (97, "early"): [326, 346],
    (97, "scan"): [308, 328],
    (197, "early"): [667, 779],
    (197, "scan"): [695, 702, 744],
    (397, "early"): [1347, 1555],
    (397, "scan"): [1230, 1373],
    (797, "early"): [2515, 3224],
    (797, "scan"): [3598, 3599],
}


@pytest.mark.parametrize("p, kind", sorted(CERTIFICATE_POOLS))
def test_certificate_pool_reports_match(p, kind):
    for k in CERTIFICATE_POOLS[p, kind]:
        nt = normalize(rat(F(p, p + 4)), rat(1), rat(F(k, p + 4)))
        assert nt.region is RegionTag.XIII
        _assert_same_from_S(nt)
        # an "early" pool's S is nonempty, a "scan" pool's empty: the march
        # runs again for the one and only sums its hole lengths for the other
        assert compute_S(nt).S_units.is_empty is (kind == "scan"), nt


@pytest.mark.slow
@pytest.mark.parametrize("p, c", [(1999, F(7001, 2000)), (4999, F(17501, 5000))])
def test_large_p_reports_match(p, c):
    nt = normalize(rat(F(p, p + 1)), rat(1), rat(c))
    assert nt.region is RegionTag.XIII
    _assert_same_from_S(nt)


@pytest.mark.slow
@pytest.mark.parametrize("p, k", [(9999, 35001), (9999, 35003), (99999, 350001),
                                  (99999, 350003)])
def test_large_p_S_and_chain_match_the_march_on_sets(p, k):
    # a = p/(p+1), b = 1, c = k/(p+1): S empty at k = 3.5*(p+1) + 1 and
    # nonempty at k + 2.  The reference report keeps a covered set and takes
    # too long here; the march on PeriodicSets does not
    nt = normalize(rat(F(p, p + 1)), rat(1), rat(F(k, p + 1)))
    assert nt.region is RegionTag.XIII
    S, chain = _on_sets(nt)
    assert compute_S(nt).S_units == S
    assert S.is_empty is (k == 7 * (p + 1) // 2 + 1), (p, k)
    assert _chain(hole_chain(nt)) == _chain(chain)


# -- region XII ---------------------------------------------------------------------


def _acceptance_xii():
    """The 150 irrational acceptance fixtures: a = x0 + x1*tau, b = 1,
    c = y0 + y1*tau."""
    one = rat(1)
    for ctx, rows in ((pi_context(), PI_TRIPLES), (SQRT2, SQRT2_TRIPLES),
                      (surd_context(3), SQRT3_TRIPLES)):
        for x0, x1, y0, y1, _ in rows:
            yield normalize(ctx.num(x0, x1), one, ctx.num(y0, y1))


def _rung(x1):
    """a = x1*sqrt(2), b = 1, c = 7/2, as on the slow large-n ladder."""
    return normalize(SQRT2.num(0, x1), rat(1), rat(F(7, 2)))


def _xii_exit(nt, chain):
    """How the single-hole march behind this chain of holes ended."""
    last = chain[-1]
    if last.status is HoleStatus.FROZEN:
        return "frozen"
    if len(last.hole.intervals) == 2:
        return "seam wrap"
    if last.index >= floor_div(nt.a, nt.b - nt.a) - 1:
        # the last index the march can reach; the reference stops there by
        # its step cap, the live march because the hole is outside the branches
        return "cap"
    return "branch"


def test_acceptance_xii_reports_match_and_reach_every_exit():
    exits = Counter()
    for nt in _acceptance_xii():
        assert nt.region is RegionTag.XII
        exits[_xii_exit(nt, _assert_same_report(nt).chain)] += 1
    assert exits == {"frozen": 32, "branch": 57, "cap": 57, "seam wrap": 4}


def test_seeded_xii_reports_match():
    exits = Counter()
    for nt in _xii_draw(seed=13, count=200):
        exits[_xii_exit(nt, _assert_same_report(nt).chain)] += 1
    # no march of this draw reaches the cap index
    assert set(exits) == {"frozen", "branch", "seam wrap"}, exits


def test_xii_report_matches_at_n_3362():
    nt = _rung(F(41, 58))
    assert floor_div(nt.a, nt.b - nt.a) == 3362
    _assert_same_report(nt)


def _assert_holes_disjoint(rep):
    """No hole of the chain meets another; the full circle a XIII march
    appends when S is empty is no hole."""
    full = PeriodicSet.full(rep.S.period)
    ivs = sorted((iv for step in rep.chain if step.hole != full for iv in step.hole.intervals),
                 key=itemgetter(0))
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        assert hi <= lo


def test_chain_holes_are_pairwise_disjoint():
    xii = [*_acceptance_xii(), *_xii_draw(seed=13, count=200), _rung(F(41, 58))]
    xiii = list(_rational(12))
    assert len(xiii) > 1500
    for nt in xii + xiii:
        _assert_holes_disjoint(compute_S(nt))


def test_compute_S_and_the_pipeline_build_no_chain_and_convert_no_S(monkeypatch):
    """compute_S builds S once, in the units of its march, and the pipeline
    hands that S on: neither builds a chain step nor maps an S from grid units
    to the reals."""
    calls = Counter()
    step, grid_reals = dynsys.HoleChainStep, dynsys._grid_reals

    def counted_step(*args):
        calls["HoleChainStep"] += 1
        return step(*args)

    def counted_grid_reals(nt, *sets):
        calls["_grid_reals"] += 1
        return grid_reals(nt, *sets)

    monkeypatch.setattr(dynsys, "HoleChainStep", counted_step)
    monkeypatch.setattr(dynsys, "_grid_reals", counted_grid_reals)
    survey = list(on_grid_survey(16, 1, 8, regions=tuple(RegionTag)))
    assert {nt.region for nt in survey} >= {RegionTag.V, RegionTag.IX, RegionTag.X,
                                           RegionTag.XI, RegionTag.XIII}
    for nt in survey:
        triple_pipeline_check(nt)
    assert calls == {}
    # an irrational ratio has no grid units to map from; its chain stays unbuilt
    for nt in _acceptance_xii():
        triple_pipeline_check(nt)
    assert calls == {}
    # the counters see what they count: S read over the reals, a chain read
    nt = normalize(rat(F(13, 17)), rat(1), rat(F(77, 17)))
    rep = compute_S(nt)
    assert calls == {}
    assert measure_identity(nt, rep.S) and calls == {"_grid_reals": 1}
    assert rep.chain and calls["HoleChainStep"] > 0


# -- the marches, step by step -------------------------------------------------------
#
# The live XII march runs on integer pairs over one denominator, keeping one
# byte per step, and the live XIII march on tuples of integer intervals; the
# ones they replaced ran on ExactReal starts and on a PeriodicSet per
# operation.


def _assert_same_xii_march(nt):
    """The same starts (the live ones replayed from the march's steps),
    holes, statuses and exit as the ExactReal march.  Returns the exit."""
    steps, end = dynsys._propagate_irrational(nt)
    want, want_end = ref._propagate_irrational_on_reals(nt)
    assert len(steps) == len(want) - 1, nt
    assert [_value(s) for s in dynsys._hole_starts(nt, steps)] == [_value(s) for s in want], nt
    assert end is want_end, nt
    chain = hole_chain(nt)
    ba = nt.b - nt.a
    assert _chain(chain) == [
        (i, _set(PeriodicSet.from_wrapped(nt.a, [(s, s + ba)])),
         want_end if i == len(want) - 1 else HoleStatus.PROPAGATING)
        for i, s in enumerate(want)], nt
    return _xii_exit(nt, chain)


def _assert_same_xiii_march(nt):
    """The same holes, in grid units, with the same statuses, as the march on
    PeriodicSets; the live march yields each hole as its bare front.  Returns
    the statuses."""
    got = [(nt.form.A[0], front, status) for front, status in dynsys._propagate_rational(nt)]
    want = [(hole.period, hole.intervals, status)
            for hole, status in ref._propagate_rational_on_sets(nt)]
    assert got == want, nt
    return [status for _, _, status in got]


def test_xii_march_matches_on_acceptance_triples():
    exits = Counter(_assert_same_xii_march(nt) for nt in _acceptance_xii())
    assert exits == {"frozen": 32, "branch": 57, "cap": 57, "seam wrap": 4}


def _xii_march_draw(ctx, seed, count):
    """Region-XII triples in ctx with a = x0 + x1*tau, b = 1, n = a/(1-a) in
    [2, 40] and c = k0 + k1*a + r for a small rational r."""
    rng = random.Random(seed)
    one = rat(1)
    while count:
        a = ctx.num(F(rng.randint(-3, 1), rng.randint(1, 4)),
                    F(rng.randint(1, 12), rng.randint(2, 20)))
        if a.sign() <= 0 or a >= one or not 2 <= floor_div(a, one - a) <= 40:
            continue
        k0 = rng.randint(2, 12)
        c = rng.choice([1 - k0, rng.randint(-6, 6)]) * a + k0 + F(rng.randint(0, 3),
                                                                   rng.randint(1, 5))
        if c.sign() <= 0:
            continue
        nt = normalize(a, one, c)
        if nt.region is RegionTag.XII:
            count -= 1
            yield nt


@pytest.mark.parametrize("ctx", [SQRT2, surd_context(3), pi_context()],
                         ids=["sqrt2", "sqrt3", "pi"])
def test_xii_march_matches_on_seeded_draws_to_every_exit(ctx):
    exits = Counter(_assert_same_xii_march(nt) for nt in _xii_march_draw(ctx, 17, 150))
    assert set(exits) == {"frozen", "branch", "cap", "seam wrap"}, exits


def test_xiii_march_matches_q_le_16():
    statuses = Counter()
    triples = list(_rational(16))
    assert len(triples) > 6000
    for nt in triples:
        statuses.update(_assert_same_xiii_march(nt))
    assert set(statuses) == {HoleStatus.PROPAGATING, HoleStatus.ABSORBED, HoleStatus.FROZEN}


# the perfbench certificates workload's XII pools: a = x0 + x1*tau, b = 1,
# c = 7/2, (x0, x1) per (context, n)
XII_CERTIFICATE_POOLS = {
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


def test_certificate_pool_marches_match():
    contexts = {"sqrt2": SQRT2, "sqrt3": surd_context(3), "pi": pi_context()}
    for (name, n), pool in XII_CERTIFICATE_POOLS.items():
        for x0, x1 in pool:
            nt = normalize(contexts[name].num(x0, x1), rat(1), rat(F(7, 2)))
            assert nt.region is RegionTag.XII and floor_div(nt.a, nt.b - nt.a) == n
            # every rung leaves S empty
            assert _assert_same_xii_march(nt) != "frozen", nt
    statuses = Counter()
    for (p, _), ks in CERTIFICATE_POOLS.items():
        for k in ks:
            statuses.update(_assert_same_xiii_march(
                normalize(rat(F(p, p + 4)), rat(1), rat(F(k, p + 4)))))
    assert statuses[HoleStatus.ABSORBED] and statuses[HoleStatus.PROPAGATING]


def _pi_close_call():
    """A pi triple, in a fresh context, whose first branch test c1 < c0+2a-2b
    compares two numbers u - v*pi apart, u/v = 1783366216531/567663097408 a
    convergent of pi: |u - v*pi| < 1/v, far below what a 64-bit enclosure
    of pi, times v, can resolve.  a = 2pi/7, b = 1, c = 3 + c0 with
    c0 = 5 - 10pi/7 + u - v*pi, so c1 = 3 - 3a and c0+2a-2b = c1 + u - v*pi."""
    ctx = pi_context()
    u, v = 1783366216531, 567663097408
    return normalize(ctx.num(0, F(2, 7)), rat(1), ctx.num(8 + u, F(-10, 7) - v))


def test_pi_precision_exhaustion_in_both_xii_marches(monkeypatch):
    start, cap = exactnum._PI_START_BITS, exactnum._MAX_BITS
    for march in (dynsys._propagate_irrational, ref._propagate_irrational_on_reals):
        nt = _pi_close_call()
        assert nt.region is RegionTag.XII and nt.a.ctx._bits == start
        with monkeypatch.context() as m:
            m.setattr(exactnum, "_MAX_BITS", start)
            with pytest.raises(PrecisionExhausted):
                march(nt)
    assert exactnum._MAX_BITS == cap
    # under the restored cap both marches refine past the start bits and agree
    nt = _pi_close_call()
    _assert_same_xii_march(nt)
    assert nt.a.ctx._bits > start


# -- ergodic diagnostic -------------------------------------------------------------

def _birkhoff_starts(seed):
    """Triples with maps in Q, sqrt3 and pi, each with seeded starts t in
    [-2a, 3a]: fixed points, orbits into S and orbits that meet the bump."""
    rng = random.Random(seed)
    sqrt3, pi = surd_context(3), pi_context()
    triples = [normalize(rat(F(13, 17)), rat(1), rat(F(77, 17))),
               normalize(rat(F(7, 9)), rat(1), rat(F(7, 2))),
               normalize(sqrt3.num(0, F(1, 2)), rat(1), sqrt3.num(15, F(-13, 2))),
               normalize(pi.num(0, F(1, 4)), rat(1), pi.num(23, F(-11, 2)))]
    for nt in triples:
        ctx = nt.a.ctx
        for _ in range(6):
            t = nt.a * F(rng.randint(-200, 300), 100)
            yield nt, t if ctx.kind == "rational" else t + ctx.num(0, F(rng.randint(-9, 9), 97))


def test_birkhoff_average_matches_the_loop_through_apply_R():
    # each orbit point reduced once by the shifts taken mod a, against the
    # loop that reduced apply_R's image again; both float the same exact
    # points, up to the enclosure each float reads
    kinds = set()
    for nt, t in _birkhoff_starts(seed=31):
        for n in (1, 2, 7, 400):
            got, want = dynsys.birkhoff_average(nt, t, n), ref.birkhoff_average(nt, t, n)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (nt.a, nt.c, t, n)
            kinds.add((nt.a.ctx.kind, "0" if want == 0 else "1" if want == 1 else "ramp"))
    assert {kind for kind, _ in kinds} == {"rational", "surd", "pi"}, kinds
    assert {avg for _, avg in kinds} == {"0", "1", "ramp"}, kinds

"""Differential tests: compute_S against the marches and the eager marks it
replaced (`reference_dynsys.py`), report field by field.  On region XIII the
live march runs on integers in units of b/q and its cyclic marks derive their
points when read; on region XII it carries one hole start.  Neither keeps a
covered set, which rests on the holes of a chain being pairwise disjoint,
also tested here."""

from collections import Counter
from fractions import Fraction as F
from math import gcd
from operator import itemgetter

import pytest

import reference_dynsys as ref
from gaborbox.dynsys import HoleStatus, compute_S
from gaborbox.exactnum import floor_div, pi_context, rat, surd_context
from gaborbox.lattice import PeriodicSet, RegionTag, normalize
from test_acceptance import PI_TRIPLES, SQRT2_TRIPLES, SQRT3_TRIPLES
from test_reference_scan import _xii_draw

SQRT2 = surd_context(2)


def _value(x):
    """An ExactReal as its value and its rendering (contexts of equal
    rational values may differ and are not observable)."""
    return None if x is None else (x, x.render())


def _set(E):
    return _value(E.period), tuple((_value(lo), _value(hi)) for lo, hi in E.intervals)


def _report(rep):
    """Every field of an InvariantSetReport, the marks' points as read."""
    m, x = rep.marks, rep.rational_extras
    return {
        "S": _set(rep.S),
        "chain": [(step.index, _set(step.hole), step.status) for step in rep.chain],
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


def test_rational_xiii_reports_match_q_le_10():
    triples = list(_rational(10))
    assert len(triples) > 1000
    for nt in triples:
        _assert_same_report(nt)


@pytest.mark.slow
def test_rational_xiii_reports_match_q_le_24():
    for nt in _rational(24):
        _assert_same_report(nt)


def test_sqrt2_scaled_xiii_reports_match():
    # a = (p/q)*sqrt(2), b = sqrt(2): the grid values carry a tau coefficient
    root2 = SQRT2.num(0, 1)
    triples = list(_xiii_triples(10, root2, (root2,)))
    assert len(triples) > 100
    for nt in triples:
        _assert_same_report(nt)


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
        _assert_same_report(nt)


@pytest.mark.slow
@pytest.mark.parametrize("p, c", [(1999, F(7001, 2000)), (4999, F(17501, 5000))])
def test_large_p_reports_match(p, c):
    nt = normalize(rat(F(p, p + 1)), rat(1), rat(c))
    assert nt.region is RegionTag.XIII
    _assert_same_report(nt)


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


def _xii_exit(nt, rep):
    """How the single-hole march ended."""
    last = rep.chain[-1]
    if last.status is HoleStatus.FROZEN:
        return "frozen"
    if len(last.hole.intervals) == 2:
        return "seam wrap"
    if last.index >= floor_div(nt.a, nt.b - nt.a) - 1:
        return "cap"
    return "branch"


def test_acceptance_xii_reports_match_and_reach_every_exit():
    exits = Counter()
    for nt in _acceptance_xii():
        assert nt.region is RegionTag.XII
        exits[_xii_exit(nt, _assert_same_report(nt))] += 1
    assert exits == {"frozen": 32, "branch": 57, "cap": 57, "seam wrap": 4}


def test_seeded_xii_reports_match():
    exits = Counter()
    for nt in _xii_draw(seed=13, count=200):
        exits[_xii_exit(nt, _assert_same_report(nt))] += 1
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

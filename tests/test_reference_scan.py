"""Differential tests: the solved certificate searches and the set algebra
built on one window cut against the scans they replaced (`reference_scan.py`)."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scan as ref
from gaborbox.classifier import _search_obstruction_irrational, _xiii_candidates
from gaborbox.exactnum import floor_div, pi_context, rat, surd_context
from gaborbox.lattice import PeriodicSet, RegionTag, normalize, region_tag
from gaborbox.oracle import on_grid_survey


# -- certificate searches -----------------------------------------------------------

def test_xiii_candidates_match_scan_q_le_20():
    triples = 0
    seen = set()
    for nt in on_grid_survey(20, 1, 8, regions=(RegionTag.XIII,)):
        want = list(ref._xiii_candidates(nt))
        assert list(_xiii_candidates(nt)) == want, (nt.a, nt.c)
        seen.update((w.case_id, excl_ok) for w, excl_ok in want)
        triples += 1
    assert triples == 1735
    # every case, on both sides of the exclusion clause
    assert seen == {(case, ok) for case in (6, 7, 8) for ok in (False, True)}


@pytest.mark.slow
def test_xiii_candidates_match_n_scan_at_p_1999():
    # a = p/(p+1): b - a is one grid step, so case 8 runs s up to p/2 with
    # bd = p - s, the longest divisor walks per p
    p = 1999
    a, one = rat(F(p, p + 1)), rat(1)
    rng = random.Random(5)
    ks = [4001, 4002, 4003, 7001] + rng.sample(range(2 * p + 3, 6 * p), 12)
    kinds = set()
    for k in ks:
        nt = normalize(a, one, rat(F(k, p + 1)))
        if nt.region is not RegionTag.XIII:
            continue
        want = list(ref._xiii_candidates_n_scan(nt))
        assert list(_xiii_candidates(nt)) == want, k
        kinds.add(tuple(excl_ok for _, excl_ok in want))
    # no candidate, a measure-critical one, and a NotFrame witness
    assert {(), (False,), (True,)} <= kinds, kinds


def _xii_draw(seed, count):
    """Region-XII triples with c = k0 + k1*a, b = 1, n = a/(1-a) in [3, 40];
    half of them put k1 = 1 - k0, where measure-critical matches live."""
    rng = random.Random(seed)
    contexts = (surd_context(2), surd_context(3), pi_context())
    one = rat(1)
    while count:
        ctx = rng.choice(contexts)
        a = ctx.num(F(rng.randint(-3, 1), rng.randint(1, 4)),
                    F(rng.randint(1, 12), rng.randint(2, 20)))
        if a.sign() <= 0 or (a - one).sign() >= 0:
            continue
        if not 3 <= floor_div(a, one - a) <= 40:
            continue
        k0 = rng.randint(2, 12)
        k1 = rng.choice([1 - k0, rng.randint(-6, 6)])
        c = k1 * a + k0
        if c.sign() <= 0:
            continue
        nt = normalize(a, one, c)
        if region_tag(nt) is RegionTag.XII:
            count -= 1
            yield nt


def test_xii_search_matches_scan_on_seeded_draw():
    frames = not_frames = critical = 0
    for nt in _xii_draw(seed=7, count=100):
        want = ref._search_obstruction_irrational(nt)
        assert _search_obstruction_irrational(nt) == want, (nt.a, nt.c)
        if want is None:
            frames += 1
        elif (want[4] - nt.a).is_zero():
            critical += 1
        else:
            not_frames += 1
    assert frames and not_frames and critical, (frames, not_frames, critical)


# -- PeriodicSet algebra ------------------------------------------------------------

SQ2 = surd_context(2)
PERIOD = SQ2.num(1)


def _endpoint_pool():
    """Rational points k/8 and sqrt(2) points inside [0, 1], 0 and 1 included."""
    pts = [rat(F(k, 8)) for k in range(9)]
    for u in range(-2, 3):
        for v in (F(1, 2), F(1, 3), F(-1, 2), F(1), F(-1)):
            x = SQ2.num(u, v)
            if x.sign() > 0 and (x - PERIOD).sign() < 0:
                pts.append(x)
    return sorted(pts)


POOL = _endpoint_pool()

CELLS = list(zip(POOL, POOL[1:]))


def _from_pairs(pairs):
    # pairs may overlap or touch; make() merges them into canonical form
    return PeriodicSet.make(PERIOD, [(POOL[min(i, j)], POOL[max(i, j)]) for i, j in pairs])


def _from_cells(bits, bit):
    return PeriodicSet.make(PERIOD, [cell for cell, b in zip(CELLS, bits) if b & bit])


index_pairs = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1)),
    max_size=7,
)
periodic_sets = st.one_of(
    st.just(PeriodicSet.empty(PERIOD)),
    st.just(PeriodicSet.full(PERIOD)),
    index_pairs.map(_from_pairs),
)
# two sets over one partition of the period: each cell lies in x, y, both or
# neither, so intervals of one operand keep touching those of the other
cell_pairs = st.lists(st.integers(0, 3), min_size=len(CELLS), max_size=len(CELLS)).map(
    lambda bits: (_from_cells(bits, 1), _from_cells(bits, 2)))
operand_pairs = st.one_of(st.tuples(periodic_sets, periodic_sets), cell_pairs)


@given(xy=operand_pairs)
@settings(max_examples=300, deadline=None)
def test_set_algebra_matches_scan(xy):
    x, y = xy
    for op in ("union", "intersect", "minus"):
        got = getattr(x, op)(y)
        want = getattr(ref, op)(x, y)
        # PeriodicSet equality is endpoint-by-endpoint, so this also pins
        # the canonical storage
        assert got == want, (op, x, y)
    assert x.complement() == ref.complement(x)


@given(x=periodic_sets, i=st.integers(0, len(POOL) - 1), j=st.integers(0, len(POOL) - 1))
@settings(max_examples=300, deadline=None)
def test_restrict_matches_scan(x, i, j):
    lo, hi = POOL[min(i, j)], POOL[max(i, j)]
    # drawn windows, an empty one inside the period, and both ends of it
    for lo, hi in ((lo, hi), (lo, lo), (POOL[0], PERIOD), (POOL[0], POOL[0]), (PERIOD, PERIOD)):
        assert x.restrict(lo, hi) == ref.intersect(x, PeriodicSet.make(PERIOD, [(lo, hi)])), \
            (x, lo, hi)


# one interval against many: the operations cut the larger operand, whichever side
many_intervals = st.one_of(
    st.just(_from_cells([1, 0] * (len(CELLS) // 2) + [1] * (len(CELLS) % 2), 1)),
    st.lists(st.integers(0, 1), min_size=len(CELLS), max_size=len(CELLS)).map(
        lambda bits: _from_cells(bits, 1)),
)
one_interval = st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1)).map(
    lambda ij: _from_pairs([ij]))


@given(x=many_intervals, y=one_interval)
@settings(max_examples=300, deadline=None)
def test_set_algebra_one_interval_against_many(x, y):
    for u, v in ((x, y), (y, x)):
        for op in ("union", "intersect", "minus"):
            assert getattr(u, op)(v) == getattr(ref, op)(u, v), (op, u, v)


def test_set_algebra_touching_neighbours():
    p = rat(1)

    def s(*pairs):
        return PeriodicSet.make(p, [(rat(F(lo)), rat(F(hi))) for lo, hi in pairs])

    # one interval of the larger operand bridges two of the smaller one
    x = s(("1/8", "1/4"), ("3/8", "1/2"))
    y = s((0, "1/16"), ("1/4", "3/8"), ("5/8", "3/4"), ("7/8", 1))
    assert x.union(y) == s((0, "1/16"), ("1/8", "1/2"), ("5/8", "3/4"), ("7/8", 1))
    assert y.union(x) == x.union(y) == ref.union(x, y)
    assert x.intersect(y).is_empty
    assert x.minus(y) == x
    assert y.minus(x) == y

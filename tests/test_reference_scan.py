"""Differential tests: the solved certificate searches, their floor-sum
window count, the set algebra built on one window cut and the grid oracle's
flags against the scans they replaced and against their parents
(`reference_scan.py`, whose docstring tables which test holds what)."""

import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scan as ref
from gaborbox import classifier
from gaborbox.classifier import _search_obstruction_irrational, _window_count, _xiii_candidates
from gaborbox.dynsys import maps_defined
from gaborbox.exactnum import (
    RATIONAL,
    _floor_pair,
    _sign,
    floor_div,
    pi_context,
    rat,
    surd_context,
)
from gaborbox.lattice import PeriodicSet, RegionTag, normalize, region_tag
from gaborbox.oracle import (
    _D_flags,
    _S_flags,
    build_grid_model,
    grid_frame_decision,
    on_grid_survey,
)


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
def test_xiii_candidates_match_uncut_walk_at_p_1999():
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
        want = list(ref._xiii_candidates_uncut(nt))
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
        assert _search_obstruction_irrational(nt) == ref.xii_result(nt, want), (nt.a, nt.c)
        if want is None:
            frames += 1
        elif (want[4] - nt.a).is_zero():
            critical += 1
        else:
            not_frames += 1
    assert frames and not_frames and critical, (frames, not_frames, critical)


def _lattice_draw(ctx, seed, count):
    """Region-XII triples with c = k1*a + k0*b, b = 1 or a value of ctx, and
    n = a/(b-a) in [3, 60]; a third of them move c off aZ + bZ by a, b or 1
    over 2..5, where no s solves the membership equation."""
    rng = random.Random(seed)
    one = rat(1)
    while count:
        b = rng.choice([one, ctx.num(F(rng.randint(-2, 4), rng.randint(1, 3)),
                                     F(rng.randint(1, 4), rng.randint(1, 4)))])
        a = ctx.num(F(rng.randint(-3, 4), rng.randint(1, 4)),
                    F(rng.randint(1, 12), rng.randint(2, 20)))
        if a.sign() <= 0 or a >= b or not 3 <= floor_div(a, b - a) <= 60:
            continue
        k0 = rng.randint(2, 12)
        c = rng.choice([1 - k0, rng.randint(-6, 6)]) * a + k0 * b
        if rng.randrange(3) == 0:
            c = c + rng.choice([one, a, b]) * F(1, rng.randint(2, 5))
        if c.sign() <= 0:
            continue
        nt = normalize(a, b, c)
        if nt.region is RegionTag.XII:
            count -= 1
            yield nt


def _cramer_solutions(nt):
    """n = floor(a/(b-a)), the s in 1..n with m and d1 integral (one Cramer
    solve each), and those of them with 0 <= d1 < s."""
    a, ba = nt.a, nt.b - nt.a
    det = ba.x0 * a.x1 - a.x0 * ba.x1
    n = floor_div(a, ba)
    integral, survivors = [], []
    for s in range(1, n + 1):
        r0, r1 = s * nt.c1.x0 - nt.c0.x0, s * nt.c1.x1 - nt.c0.x1
        m, e = (ba.x0 * r1 - r0 * ba.x1) / det, (a.x0 * r1 - a.x1 * r0) / det
        if m.denominator == 1 and e.denominator == 1:
            integral.append(s)
            if 1 <= e <= s:
                survivors.append(s)
    return n, integral, survivors


def _same_as_signs(nt):
    """The witness and the hit or miss of the solve that took both window
    conditions as per-s signs; returns what its hit decides."""
    want = ref._search_obstruction_irrational_signs(nt)
    assert _search_obstruction_irrational(nt) == ref.xii_result(nt, want), (nt.a, nt.b, nt.c)
    if want is None:
        return "Frame"
    return "measure-critical" if (want[4] - nt.a).is_zero() else "NotFrame"


CONTEXTS = [surd_context(2), surd_context(3), pi_context()]
CONTEXT_IDS = ["sqrt2", "sqrt3", "pi"]


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_xii_search_matches_cramer_solve_per_s(ctx):
    # the lattice draws against the window-sign solve, tallied by what a
    # 2x2 Cramer solve of the membership equation finds for each s
    kinds = set()
    for seed in (1, 2, 3):
        for nt in _lattice_draw(ctx, seed, 60):
            kinds.add(_same_as_signs(nt))
            n, integral, survivors = _cramer_solutions(nt)
            if not integral:
                kinds.add("no s solves")
            elif len(integral) == n and 0 < len(survivors) < n:
                kinds.add("every s solves, 1 <= d1+1 <= s cuts")
            if len(survivors) >= 2:
                kinds.add("two survivors")
    assert kinds == {"no s solves", "every s solves, 1 <= d1+1 <= s cuts", "two survivors",
                     "Frame", "NotFrame", "measure-critical"}


def test_xii_search_matches_window_signs_on_draws(monkeypatch):
    # the window conditions as two floors cutting s, against their signs per
    # s; the old search takes no other sign, so a sign <= 0 is an s that a
    # window condition cut
    signs = Counter()

    def tallied(*pairs):
        got = _sign(*pairs)
        signs["cut" if got <= 0 else "kept"] += 1
        return got

    monkeypatch.setattr(ref, "_sign", tallied)
    kinds = {_same_as_signs(nt) for nt in _xii_draw(seed=7, count=100)}
    assert kinds == {"Frame", "NotFrame", "measure-critical"}, kinds
    assert signs["cut"] and signs["kept"], signs


def test_xii_search_matches_window_signs_on_many_survivor_family():
    # a = 239/338*sqrt2, b = 1, c = 3 + v*(1 - a): NotFrame, with about v/12
    # survivors of the integer cut, each paying a window count
    a = surd_context(2).num(0, F(239, 338))
    for v in range(100, 6401, 300):
        nt = normalize(a, rat(1), 3 + v * (1 - a))
        assert nt.region is RegionTag.XII, v
        assert _same_as_signs(nt) == "NotFrame", v


def test_xiii_candidates_match_n_scan_on_xiii_pools():
    # the pool triples against the scan over every s and N
    kinds = set()
    for nt in _xiii_pool_triples():
        want = list(ref._xiii_candidates(nt))
        assert list(_xiii_candidates(nt)) == want, (nt.a, nt.c)
        kinds.add(tuple(w.case_id for w, _ in want))
    assert kinds == {(), (8,)}


def test_xiii_candidates_match_uncut_walk_q_le_24():
    # the live walk skips a window count whose d1 interval is empty; the
    # uncut one pays it and fails the candidate after
    triples = 0
    seen = set()
    for nt in on_grid_survey(24, 1, 8, regions=(RegionTag.XIII,)):
        want = list(ref._xiii_candidates_uncut(nt))
        assert list(_xiii_candidates(nt)) == want, (nt.a, nt.c)
        seen.update((w.case_id, excl_ok) for w, excl_ok in want)
        triples += 1
    assert triples == 3035
    assert seen == {(case, ok) for case in (6, 7, 8) for ok in (False, True)}


def _xiii_large_p_draw(seed, count):
    """On-grid XIII triples a = p/q, b = 1, c = k/q in (1, 8), p log-uniform
    in [10, 10^5] and q - p in {1, 2, 3, 7, 31}."""
    rng = random.Random(seed)
    while count:
        p = int(10 ** rng.uniform(1, 5))
        q = p + rng.choice((1, 2, 3, 7, 31))
        if gcd(p, q) != 1:
            continue
        nt = normalize(rat(F(p, q)), rat(1), rat(F(rng.randint(q + 1, 8 * q - 1), q)))
        if nt.region is RegionTag.XIII:
            count -= 1
            yield nt


@pytest.mark.slow
def test_xiii_candidates_match_uncut_walk_on_large_p_draws():
    kinds, gaps, ps = set(), set(), []
    for nt in _xiii_large_p_draw(seed=22, count=120):
        want = list(ref._xiii_candidates_uncut(nt))
        assert list(_xiii_candidates(nt)) == want, (nt.a, nt.c)
        kinds.update((w.case_id, excl_ok) for w, excl_ok in want)
        gaps.add(nt.rational[1] - nt.rational[0])
        ps.append(nt.rational[0])
    assert {(8, False), (8, True)} <= kinds, kinds
    assert gaps == {1, 2, 3, 7, 31} and max(ps) > 5 * 10**4, (gaps, max(ps))


def test_cut_skips_most_window_counts_on_xiii_pools(monkeypatch):
    # both walks count through the one floor-sum count; tally each
    tally = Counter()

    def counting(walk):
        def count(ctx, s, v, M, W):
            tally[walk] += 1
            return _window_count(ctx, s, v, M, W)
        return count

    monkeypatch.setattr(classifier, "_window_count", counting("cut"))
    monkeypatch.setattr(ref, "_window_count", counting("uncut"))
    for nt in _xiii_pool_triples():
        assert list(_xiii_candidates(nt)) == list(ref._xiii_candidates_uncut(nt)), (nt.a, nt.c)
    assert tally["cut"] <= 0.2 * tally["uncut"], tally


def test_case_8_window_counts_match_generator(monkeypatch):
    # every count that case 8 takes on the q <= 20 survey and the XIII pools
    counted = []

    def checked(ctx, s, v, M, W):
        got = _window_count(ctx, s, v, M, W)
        # case 8 counts on integers, pairs with no tau coefficient
        assert v[1] == M[1] == W[1] == 0, (v, M, W)
        assert got == ref.window_count_pairs(ctx, s, v, M, W), (s, v, M, W)
        counted.append(s)
        return got

    monkeypatch.setattr(classifier, "_window_count", checked)
    for nt in on_grid_survey(20, 1, 8, regions=(RegionTag.XIII,)):
        list(_xiii_candidates(nt))
    survey = len(counted)
    for nt in _xiii_pool_triples():
        list(_xiii_candidates(nt))
    assert survey and len(counted) > survey and max(counted) > 100, (survey, len(counted))


@st.composite
def _window(draw):
    M = draw(st.integers(1, 10**6))
    v = draw(st.one_of(st.integers(-10**7, 10**7), st.integers(-50, 50).map(lambda t: t * M)))
    return v, M, draw(st.integers(0, M)), draw(st.integers(0, 2 * 10**5))


@settings(max_examples=60, deadline=None)
@given(_window())
@example((0, 97, 40, 5))
@example((13 * 97, 97, 97, 150_000))  # v = 0 mod M, W = M, s past 10^5
@example((357, 1000, 1000, 123_456))
@example((-4_999, 5_000 * 4_999, 4_999 * 17, 100_001))
def test_window_count_matches_generator(window):
    # integers are the pairs (X0, 0), whose floors never read an enclosure
    v, M, W, s = window
    pairs = (v, 0), (M, 0), (W, 0)
    assert _window_count(RATIONAL, s, *pairs) == ref.window_count_pairs(RATIONAL, s, *pairs)


def _reduce(ctx, x, M):
    """x mod M on integer pairs, in [0, M)."""
    q = _floor_pair(ctx, x[0], x[1], M[0], M[1])
    return x[0] - q * M[0], x[1] - q * M[1]


def _pair_window_draw(ctx, seed, count, s_lo, s_hi):
    """(s, v, M, W) on integer pairs of ctx with M > 0 and 0 <= W <= M, s in
    [s_lo, s_hi].  v is now and then a whole multiple of M (every residue
    0); W is now and then 0, M, or the residue of some j*v with j <= s,
    where the strict comparison decides; else a residue of a random pair."""
    rng = random.Random(seed)
    while count:
        M = (rng.randint(-10**4, 10**4), rng.randint(-300, 300))
        if _sign(ctx, M[0], 1, M[1], 1) <= 0:
            continue
        s = rng.randint(s_lo, s_hi)
        if rng.randrange(5):
            v = (rng.randint(-10**5, 10**5), rng.randint(-10**3, 10**3))
        else:
            t = rng.randint(-5, 5)
            v = (t * M[0], t * M[1])
        kind = rng.randrange(6)
        if kind == 0:
            W = (0, 0)
        elif kind == 1:
            W = M
        elif kind == 2:
            j = rng.randint(1, max(s, 1))
            W = _reduce(ctx, (j * v[0], j * v[1]), M)
        else:
            W = _reduce(ctx, (rng.randint(-10**5, 10**5), rng.randint(-10**3, 10**3)), M)
        count -= 1
        yield s, v, M, W


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_pair_window_count_matches_residue_scan(ctx):
    # the floor-sum count on irrational pairs against the residue XII carried
    kinds = set()
    for s, v, M, W in _pair_window_draw(ctx, seed=23, count=40, s_lo=0, s_hi=2000):
        got = _window_count(ctx, s, v, M, W)
        assert got == ref.window_count_pairs(ctx, s, v, M, W), (s, v, M, W)
        kinds.add("none" if got == 0 else "all" if got == s else "some")
    assert kinds == {"none", "some", "all"}, kinds


@pytest.mark.slow
@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_pair_window_count_matches_residue_scan_past_s_1e5(ctx):
    for s, v, M, W in _pair_window_draw(ctx, seed=29, count=2, s_lo=100_001, s_hi=130_000):
        assert _window_count(ctx, s, v, M, W) == ref.window_count_pairs(ctx, s, v, M, W), \
            (s, v, M, W)


# -- grid oracle ------------------------------------------------------------------

GRID_REGIONS = (RegionTag.VIII, RegionTag.IX, RegionTag.X, RegionTag.XI, RegionTag.XII,
                RegionTag.XIII)


def _grid_triples_q_le_20():
    """Every on-grid VIII-XIII triple with q <= 20, at b = 1 and scaled to b = 3/2."""
    scale = rat(F(3, 2))
    for nt in on_grid_survey(20, 1, 8, regions=GRID_REGIONS):
        yield nt
        yield normalize(nt.a * scale, nt.b * scale, nt.c * scale)


def _xiii_pool_triples():
    """a = p/(p+4), b = 1, c = k/(p+4): the XIII rungs p = 97..797 of the
    certificates bench, each k of its pools."""
    pools = {97: [326, 346, 308, 328], 197: [667, 779, 695, 702, 744],
             397: [1347, 1555, 1230, 1373], 797: [2515, 3224, 3598, 3599]}
    for p, ks in pools.items():
        for k in ks:
            yield normalize(rat(F(p, p + 4)), rat(1), rat(F(k, p + 4)))


def _flags(p, indices):
    out = bytearray(p)
    for j in indices:
        out[j] = 1
    return out


def _check_grid_oracle(triples, walk=True):
    """Hold the flags of S and D, index by index, to the list-of-preimages
    oracle and, with `walk`, that to the per-residue walk; returns what the
    inputs covered: a backward absorber across the seam, empty and nonempty
    S and D."""
    kinds = set()
    count = 0
    for nt in triples:
        gm = build_grid_model(nt)
        S, S_ref = _S_flags(gm), ref.grid_S_lists(gm)
        assert S == _flags(gm.p, S_ref), (nt.a, nt.b, nt.c)
        D, D_ref = _D_flags(gm, S), ref.grid_D_lists(gm, S_ref)
        assert D == _flags(gm.p, D_ref), (nt.a, nt.b, nt.c)
        if walk:
            assert S_ref == ref.grid_S(gm) and D_ref == ref.grid_D(gm, S_ref), (nt.a, nt.b, nt.c)
        assert grid_frame_decision(nt) == ("NotFrame" if D_ref else "Frame")
        count += 1
        kinds |= {"S" if S_ref else "no S", "D" if D_ref else "no D"}
        if gm.j1 + gm.hole_len > gm.p:
            kinds.add("seam")
    return count, kinds


ALL_KINDS = {"seam", "S", "no S", "D", "no D"}


def test_grid_oracle_matches_walk_q_le_20():
    count, kinds = _check_grid_oracle(_grid_triples_q_le_20())
    assert count == 2 * 2548
    assert kinds == ALL_KINDS


def test_grid_oracle_matches_walk_on_xiii_pools():
    count, kinds = _check_grid_oracle(_xiii_pool_triples())
    assert count == 17
    assert {"S", "D"} <= kinds, kinds


@pytest.mark.slow
def test_grid_oracle_matches_lists_at_p_1999_and_4999():
    # the XIII rungs a = p/(p+1), b = 1, c = k/(p+1): S empty, S and D
    # nonempty, and S nonempty with D empty on each rung
    rungs = [(1999, k) for k in (4002, 4003, 7001, 7003)] + [
        (4999, k) for k in (17501, 17502, 17503)]
    count, kinds = _check_grid_oracle(
        (normalize(rat(F(p, p + 1)), rat(1), rat(F(k, p + 1))) for p, k in rungs), walk=False)
    assert count == 7
    assert kinds == ALL_KINDS - {"seam"}  # a one-index absorber never crosses it


@pytest.mark.slow
def test_grid_oracle_matches_walk_q_le_24():
    count, kinds = _check_grid_oracle(
        on_grid_survey(24, 1, 8, regions=GRID_REGIONS))
    assert count == 4431
    assert kinds == ALL_KINDS


def _grid_draw(seed, count):
    """On-grid triples a = p/q, b = 1, c = k/q in (1, 8) that have the grid
    route, with p up to 10**5 drawn log-uniformly and q - p in {1, 2, 3, 7}
    or up to p/2."""
    rng = random.Random(seed)
    while count:
        p = int(10 ** rng.uniform(1, 5))
        q = p + rng.choice((1, 2, 3, 7, rng.randint(1, p // 2)))
        if gcd(p, q) != 1:
            continue
        nt = normalize(rat(F(p, q)), rat(1), rat(F(rng.randint(q + 1, 8 * q - 1), q)))
        if nt.c_on_grid and maps_defined(nt):  # as build_grid_model asks
            count -= 1
            yield nt


@pytest.mark.slow
def test_grid_oracle_matches_lists_on_seeded_draws_up_to_p_1e5():
    count, kinds = _check_grid_oracle(_grid_draw(seed=2, count=60), walk=False)
    assert count == 60
    assert kinds == ALL_KINDS


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

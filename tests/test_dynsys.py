"""The piecewise maps, hole propagation, surgery, and ergodic diagnostics.

The second half of this file carries a literal transcription of the published
two case tables for the hole iteration (one per arithmetic type), used ONLY
here as an independent reference implementation.  The production code uses the
semantic formulation (image-under-the-map with an absorbing interval); these
tests pin the two against each other.
"""

import random
from fractions import Fraction as F

import pytest

from gaborbox import PeriodicSet, RegionTag, normalize, rat
from gaborbox.errors import EmptySet, PeriodMismatch, RegionUnsupported
from gaborbox.exactnum import floor_div, mod, pi_context, surd_context
from gaborbox.dynsys import (
    HoleStatus,
    _propagate_irrational,
    apply_R,
    apply_Rt,
    birkhoff_average,
    compute_D,
    compute_S,
    hole_chain,
    maps_defined,
    measure_identity,
    measure_identity_lhs,
    surgery_Y,
    surgery_report,
)
from gaborbox.oracle import on_grid_survey

PI = pi_context()


def nt_of(a, b, c):
    return normalize(rat(F(a)), rat(F(b)), rat(F(c)))


def nt_pi(a0, a1, c0, c1):
    return normalize(PI.num(F(a0), F(a1)), rat(1), PI.num(F(c0), F(c1)))


NT77 = nt_of("13/17", 1, "77/17")
NT75 = nt_of("13/17", 1, "75/17")
NT73 = nt_of("13/17", 1, "73/17")
NT23_7 = nt_of("6/7", 1, "23/7")
NT_PI = nt_pi(0, "1/4", 23, "-11/2")


def ivs(*pairs):
    return tuple((rat(F(lo)), rat(F(hi))) for lo, hi in pairs)


# -- the two maps -------------------------------------------------------------

def test_apply_R_published_images():
    # forward map on one orbit point of each worked example
    assert mod(apply_R(rat(F(3, 7)), NT23_7), NT23_7.a).is_zero()
    assert mod(apply_R(rat(F(3, 17)), NT77), NT77.a) == rat(F(10, 17))


def test_black_hole_points_are_fixed():
    # [c0+a-b, c0) = [5/17, 9/17) for the 77/17 triple
    for t in ("5/17", "6/17", "8/17"):
        assert apply_R(rat(F(t)), NT77) == rat(F(t))
    # the backward map parks on [c-c0, c+b-c0-a) = [68/17, 72/17),
    # which is [c1, c1+b-a) = [3/17, 7/17) reduced mod a
    for t in ("68/17", "69/17", "71/17"):
        assert apply_Rt(rat(F(t)), NT77) == rat(F(t))
        assert mod(rat(F(t)) - NT77.c1, NT77.a) < NT77.b - NT77.a


def test_maps_branch_offsets():
    # left branch jumps by (floor(c/b)+1)*b, right branch by floor(c/b)*b
    t = rat(F(1, 17))
    assert apply_R(t, NT77) - t == rat(5)
    t = rat(F(10, 17))
    assert apply_R(t, NT77) - t == rat(4)


def test_maps_undefined_outside_region():
    with pytest.raises(RegionUnsupported):
        apply_R(rat(0), nt_of(3, 1, 2))  # a > c
    assert not maps_defined(nt_of("1/4", 1, "9/4"))  # c0 >= a


def _maps_defined_by_inequalities(nt):
    """maps_defined as it was before triples carried their region: the four
    inequalities checked by exact differences."""
    a, b, c = nt.a, nt.b, nt.c
    if (b - a).sign() <= 0 or (c - b).sign() <= 0:
        return False
    return (nt.c0 - (b - a)).sign() > 0 and (nt.c0 - a).sign() < 0


def test_maps_defined_matches_the_inequalities_q_le_20():
    """Every a = p/q <= 1 with q <= 20, b = 1 and c in (0, 8) on the step 1/(2q)."""
    one = rat(1)
    seen = set()
    triples = 0
    for q in range(1, 21):
        for p in range(1, q + 1):
            if F(p, q).denominator != q:
                continue
            a = rat(F(p, q))
            for k in range(1, 16 * q):
                nt = normalize(a, one, rat(F(k, 2 * q)))
                want = _maps_defined_by_inequalities(nt)
                assert maps_defined(nt) is want, (p, q, k)
                seen.add((nt.region, want))
                triples += 1
    assert triples == 27_792
    # every region but the irrational XII, each on one side only
    assert len(seen) == 13 and RegionTag.XII not in {tag for tag, _ in seen}
    assert sum(want for _, want in seen) == 6


def test_maps_defined_matches_the_inequalities_on_irrational_draws():
    """1,000 seeded triples in sqrt(2), sqrt(3) and pi with a < 2b and
    c = k*a + r*b, so that every branch of the inequalities is reached."""
    rng = random.Random(11)
    contexts = (surd_context(2), surd_context(3), PI)
    seen = set()
    drawn = 0
    while drawn < 1000:
        ctx = rng.choice(contexts)
        b = rat(F(rng.randint(1, 6), rng.randint(1, 3)))
        a = ctx.num(F(rng.randint(-3, 3), rng.randint(1, 4)),
                    F(rng.randint(0, 12), rng.randint(1, 16)))
        if a.sign() <= 0 or a > 2 * b:
            continue
        c = rng.randint(-6, 6) * a + b * F(rng.randint(1, 64), rng.randint(1, 8))
        if c.sign() <= 0:
            continue
        nt = normalize(a, b, c)
        want = _maps_defined_by_inequalities(nt)
        assert maps_defined(nt) is want, (a, b, c)
        seen.add((nt.region, want))
        drawn += 1
    assert {tag for tag, want in seen if want} >= {RegionTag.VIII, RegionTag.IX, RegionTag.XII}
    assert {tag for tag, want in seen if not want} == {
        RegionTag.I, RegionTag.III, RegionTag.IV, RegionTag.V, RegionTag.VI, RegionTag.VII}


def test_inverse_on_a_sample():
    for t in ("0", "1/17", "2/17", "9/17", "10/17", "23/34"):
        x = rat(F(t))
        assert apply_Rt(apply_R(x, NT77), NT77) == x


# -- compute_S fixtures --------------------------------------------------------

def test_S_77_17():
    rep = compute_S(NT77)
    assert rep.S == PeriodicSet.make(NT77.a, ivs(("2/17", "3/17"), ("9/17", "10/17"), ("12/17", "13/17")))
    statuses = [s.status for s in rep.chain]
    assert statuses[-1] is HoleStatus.FROZEN
    assert HoleStatus.SENTINEL not in statuses


def test_S_23_7():
    rep = compute_S(NT23_7)
    assert rep.S == PeriodicSet.make(NT23_7.a, ivs(("2/7", "3/7"), ("5/7", "6/7")))


def test_S_73_17():
    rep = compute_S(NT73)
    assert rep.S == PeriodicSet.make(NT73.a, ivs(("0", "1/17"), ("7/17", "8/17"), ("10/17", "11/17")))


def test_S_75_17():
    rep = compute_S(NT75)
    assert rep.S.measure() == rat(F(9, 17))


def test_S_pi_quarter():
    # S = [18-23pi/4, 11-7pi/2) u [12-15pi/4, 5-3pi/2) u [6-7pi/4, 17-21pi/4) mod pi/4
    rep = compute_S(NT_PI)
    # the first printed interval wraps the 0/a seam (18 - 23pi/4 < 0)
    want = PeriodicSet.from_wrapped(NT_PI.a, (
        (PI.num(18, F(-23, 4)), PI.num(11, F(-7, 2))),
        (PI.num(12, F(-15, 4)), PI.num(5, F(-3, 2))),
        (PI.num(6, F(-7, 4)), PI.num(17, F(-21, 4))),
    ))
    assert rep.S == want
    # irrational chain: every propagating hole has length exactly b-a
    ba = NT_PI.b - NT_PI.a
    for step in rep.chain:
        if step.status is HoleStatus.PROPAGATING:
            assert step.hole.measure() == ba


def test_S_empty_region_ix():
    rep = compute_S(nt_of("7/9", 1, "7/2"))
    assert rep.S.is_empty
    assert rep.Ya.is_zero()


def test_S_empty_with_sentinel_24_7():
    rep = compute_S(nt_of("6/7", 1, "24/7"))
    assert rep.S.is_empty
    assert rep.chain[-1].status is HoleStatus.SENTINEL
    assert rep.chain[-1].hole == PeriodicSet.full(rat(F(6, 7)))


def test_sentinel_march_keeps_a_byte_per_step():
    # a = 309/437*sqrt2, b = 1, c = 13/2: the XII march runs 8,443 steps
    # before a hole wraps; it records each step's move, not its start
    # (a start tuple of two integers costs over 100 bytes)
    import tracemalloc

    nt = normalize(surd_context(2).num(0, F(309, 437)), rat(1), rat(F(13, 2)))
    tracemalloc.start()
    try:
        steps, end = _propagate_irrational(nt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(steps), end) == (8443, HoleStatus.SENTINEL)
    assert peak < 4 * len(steps)
    assert compute_S(nt).S.is_empty
    # the chain replays the starts from the recorded moves
    chain = hole_chain(nt)
    assert len(chain) == len(steps) + 1 and chain[-1].status is HoleStatus.SENTINEL


@pytest.mark.parametrize("p, bound", [
    (9999, 64 * 1024),
    pytest.param(99999, 2**20, marks=pytest.mark.slow),
])
def test_empty_xiii_S_keeps_no_holes(p, bound):
    # a = p/(p+1), b = 1, c = 3.5 + 1/(p+1): the XIII march runs p steps, a
    # hole of one grid step each, and they fill the circle.  The holes'
    # lengths are summed as the march goes, so an empty S holds no hole:
    # keeping them (one interval each) took about 29 MB at p = 99,999
    import tracemalloc

    nt = normalize(rat(F(p, p + 1)), rat(1), rat(F(7, 2) + F(1, p + 1)))
    tracemalloc.start()
    try:
        rep = compute_S(nt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nt.region is RegionTag.XIII and rep.S.is_empty
    assert peak < bound, peak


def test_S_shortcircuits_x_xi():
    # region X: S = [0, c0+a-b); region XI: S = [c0, a)
    ntx = nt_of("4/5", 1, "7/2")
    repx = compute_S(ntx)
    assert repx.S == PeriodicSet.make(ntx.a, [(rat(0), ntx.c0 + ntx.a - ntx.b)])
    ntxi = nt_of("4/5", 1, "9/2")
    repxi = compute_S(ntxi)
    assert repxi.S == PeriodicSet.make(ntxi.a, [(ntxi.c0, ntxi.a)])


def test_chain_is_the_march_run_when_read():
    closed = (RegionTag.V, RegionTag.IX, RegionTag.X, RegionTag.XI)
    seen = set()
    for nt in on_grid_survey(16, 1, 8, regions=closed):
        seen.add(nt.region)
        assert compute_S(nt).chain == hole_chain(nt) == ()
    assert seen == set(closed)
    for nt in (NT77, NT73, NT75, NT23_7, NT_PI, nt_of("6/7", 1, "24/7")):
        chain = compute_S(nt).chain
        assert chain and chain == hole_chain(nt)


def test_S_unsupported_off_grid():
    with pytest.raises(RegionUnsupported):
        compute_S(nt_of("13/17", 1, "22/5"))  # region XIV goes via recursion instead


# -- derived set and measure identity -------------------------------------------

def test_D_empty_for_frames():
    for nt in (NT77, NT73, NT23_7, NT_PI):
        rep = compute_S(nt)
        assert compute_D(nt, rep.S).is_empty


def test_D_equals_S_for_75_17():
    rep = compute_S(NT75)
    D = compute_D(NT75, rep.S)
    assert D == rep.S


def test_D_of_empty_S_is_empty():
    S = PeriodicSet.empty(rat(F(13, 17)))
    assert compute_D(NT77, S).is_empty


def test_measure_identity_values():
    assert measure_identity_lhs(NT77, compute_S(NT77).S) == rat(F(13, 17))
    assert measure_identity_lhs(NT75, compute_S(NT75).S) == rat(F(39, 17))
    assert measure_identity_lhs(NT23_7, compute_S(NT23_7).S) == rat(F(6, 7))
    assert measure_identity(NT77, compute_S(NT77).S)
    assert not measure_identity(NT75, compute_S(NT75).S)


def test_measure_identity_rejects_empty():
    with pytest.raises(EmptySet):
        measure_identity(NT77, PeriodicSet.empty(NT77.a))


# S of a period that is neither a nor the triple's grid units: an integer
# period on an irrational ratio, whose form has a tau part; an integer period
# other than the X0 of a (13 on NT77); a real period other than a
WRONG_PERIOD = {
    "int-on-irrational": (NT_PI, PeriodicSet(5, ((1, 2),))),
    "int-period-40": (NT77, PeriodicSet(40, ((30, 31),))),
    "real-period-5": (NT77, PeriodicSet(rat(5), ((rat(1), rat(2)),))),
}


@pytest.mark.parametrize("stage", [compute_D, measure_identity, measure_identity_lhs,
                                   surgery_report], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", sorted(WRONG_PERIOD))
def test_stages_reject_S_of_the_wrong_period(stage, case):
    nt, S = WRONG_PERIOD[case]
    assert nt.region is (RegionTag.XII if nt is NT_PI else RegionTag.XIII)
    assert NT77.form.A == (13, 0)
    with pytest.raises(PeriodMismatch):
        stage(nt, S)


@pytest.mark.parametrize("stage", [compute_D, measure_identity, measure_identity_lhs,
                                   surgery_report], ids=lambda f: f.__name__)
def test_stages_reject_an_integer_period_on_a_form_with_a_tau_part(stage):
    # a = 1 is rational, so its pair in the form is (4, 0) in units 1/4; the
    # form still has a tau part, so an S of integer period 4 is in no units
    # of this triple
    sq2 = surd_context(2)
    nt = normalize(rat(1), sq2.num(0, 1), sq2.num(F(3, 4), 3))
    assert nt.region is RegionTag.XII and nt.form.A == (4, 0) and not nt.form.integral
    with pytest.raises(PeriodMismatch):
        stage(nt, PeriodicSet(4, ((1, 2),)))


# -- surgery --------------------------------------------------------------------

def test_surgery_needs_a_nonempty_S():
    for S in (PeriodicSet.empty(13), PeriodicSet.empty(NT77.a)):
        with pytest.raises(EmptySet, match="nonempty invariant set"):
            surgery_report(NT77, S)


def test_surgery_77_17():
    rep = compute_S(NT77)
    assert rep.Ya == rat(F(3, 17))
    assert rep.theta == rat(F(1, 17))
    assert rep.marks.kind == "cyclic"
    assert rep.marks.order == 3
    assert rep.marks.generator == rat(F(1, 17))
    ex = rep.rational_extras
    assert (ex.delta, ex.delta_prime) == (rat(F(2, 17)), rat(0))
    assert (ex.N1, ex.N2) == (0, 2)


def test_surgery_73_17():
    ex = compute_S(NT73).rational_extras
    assert (ex.delta, ex.delta_prime) == (rat(0), rat(F(-2, 17)))


def test_surgery_23_7():
    rep = compute_S(NT23_7)
    ex = rep.rational_extras
    assert (ex.N1, ex.N2, ex.delta) == (1, 0, rat(F(1, 7)))


def test_surgery_pi_quarter():
    rep = compute_S(NT_PI)
    assert rep.Ya == PI.num(-3, 1)          # pi - 3
    assert rep.theta == PI.num(4, F(-5, 4))  # 4 - 5pi/4
    assert rep.marks.kind == "finite"
    assert rep.marks.points == (
        PI.num(4, F(-5, 4)),
        PI.num(11, F(-7, 2)),
        PI.num(15, F(-19, 4)),
    )


def test_surgery_invariants():
    for nt in (NT77, NT73, NT23_7, nt_of("11/13", 1, "57/13")):
        rep = compute_S(nt)
        if rep.S.is_empty or rep.rational_extras is None:
            continue
        ex = rep.rational_extras
        # one of the two overlap defects always vanishes
        assert (ex.delta * ex.delta_prime).is_zero()
        # gap accounting around the collapsed circle
        lhs = (ex.N1 + ex.N2 + 1) * (ex.h + ex.delta - ex.delta_prime) \
            + (ex.N1 + 1) * (nt.b - nt.a)
        assert lhs == nt.a
        assert rep.S.measure() == rep.Ya


def test_surgery_Y_basics():
    S = compute_S(NT77).S
    assert surgery_Y(S, rat(0)).is_zero()
    assert surgery_Y(S, rat(F(13, 17))) == rat(F(3, 17))  # Y(a) = measure(S)
    # conjugacy at one point: Y(R(t)) = Y(t) + theta mod Ya
    t = rat(F(2, 17))
    img = mod(apply_R(t, NT77), NT77.a)
    assert mod(surgery_Y(S, img) - surgery_Y(S, t) - rat(F(1, 17)), rat(F(3, 17))).is_zero()


# -- ergodic diagnostic -----------------------------------------------------------

def test_birkhoff_fixed_point_in_black_hole():
    # t inside [c0+a-b, c0): plateau value 1 for every n
    assert birkhoff_average(NT77, rat(F(6, 17)), 7) == 1.0


def test_birkhoff_orbit_in_S_never_hits_bump():
    assert birkhoff_average(NT77, rat(F(2, 17)), 100_000) == 0.0


def test_birkhoff_ramps_before_any_orbit_point_repeats():
    # (13/17, 1, 77/17), absorber [20/68, 36/68), eps = (b-a)/8 = 2/68: the
    # bump ramps up over [18/68, 20/68] and down over [34/68, 36/68).
    # t = 19/68 sits halfway up, and R(t) = t + 5 = 47/68 mod a lies off the
    # bump; n = 1 and n = 2 end before a point repeats
    t = rat(F(19, 68))
    assert birkhoff_average(NT77, t, 1) == 0.5
    assert birkhoff_average(NT77, t, 2) == 0.25
    # 35/68 sits halfway down, on the absorber, which fixes it
    t = rat(F(35, 68))
    assert birkhoff_average(NT77, t, 1) == birkhoff_average(NT77, t, 3) == 0.5


def test_birkhoff_needs_an_orbit_point():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one orbit point"):
            birkhoff_average(NT77, rat(F(2, 17)), n)


def test_birkhoff_s_empty_orbit_absorbs():
    avg = birkhoff_average(nt_of("7/9", 1, "7/2"), rat(0), 100_000)
    assert 0.95 <= avg <= 1.0


# -- literal case tables (independent reference implementation) -------------------
#
# Both tables drive the hole [c1, c1+b-a) through the forward map by explicit
# case analysis on the current interval's position relative to the absorber
# [c0+a-b, c0).  Intervals are plain (lo, hi) pairs in [0, a); the "otherwise"
# rows collapse everything to [0, a), signalling S = empty.  One printed guard
# reads c0+b-a where only c0+a-b is geometrically meaningful (the absorber's
# left edge); the transcription uses the corrected guard.

def _frac_R(nt, t):
    # R(t) reduced into [0, a)
    return mod(apply_R(t, nt), nt.a)


def _table_S_irrational(nt, cap=500):
    a, ba = nt.a, nt.b - nt.a
    bh_lo, bh_hi = nt.c0 + nt.a - nt.b, nt.c0
    lo, hi = nt.c1, nt.c1 + ba
    holes = [(lo, hi)]
    for _ in range(cap):
        inside_left = lo.sign() >= 0 and (hi - bh_lo).sign() <= 0
        inside_right = (lo - bh_hi).sign() >= 0 and (hi - a).sign() <= 0
        frozen = (lo - bh_lo).sign() == 0 and (hi - bh_hi).sign() == 0
        if frozen:
            break
        if inside_left or inside_right:
            lo = _frac_R(nt, lo)
            hi = lo + ba
            if (hi - a).sign() > 0:
                return None  # wrapped image: sentinel
            if any((lo - plo).sign() == 0 for plo, _ in holes):
                break  # exact revisit: chain closed
            holes.append((lo, hi))
            continue
        return None  # sentinel row
    S = PeriodicSet.full(a)
    for plo, phi in holes:
        S = S.minus(PeriodicSet.make(a, [(plo, phi)]))
    return S


def _table_S_rational(nt, cap=None):
    a = nt.a
    bh_lo, bh_hi = nt.c0 + nt.a - nt.b, nt.c0
    if cap is None:
        cap = -floor_div(-a, nt.b - nt.a) + nt.rational[1] + 8
    gamma, delta = nt.c1, nt.c1 + nt.b - nt.a
    removed = [(gamma, delta)]
    for _ in range(cap):
        g, d = gamma, delta
        if g.sign() >= 0 and (d - bh_lo).sign() <= 0:
            # case 1: entirely left of the absorber
            gamma = _frac_R(nt, g)
            delta = gamma + (d - g)
        elif g.sign() >= 0 and (bh_lo - g).sign() > 0 and (d - bh_lo).sign() > 0 and (d - bh_hi).sign() <= 0:
            # case 2: left part moves, the rest parks in the absorber
            gamma = _frac_R(nt, g)
            delta = gamma + (bh_lo - g)
        elif (g - bh_lo).sign() >= 0 and (d - bh_hi).sign() <= 0:
            # case 3: parked
            break
        elif (g - bh_lo).sign() >= 0 and (bh_hi - g).sign() > 0 and (d - bh_hi).sign() > 0 and (d - a).sign() <= 0:
            # case 4 (corrected guard): straddles the absorber's right edge
            gamma = nt.c - floor_div(nt.c, a) * a
            delta = gamma + (d - bh_hi)
        elif (g - bh_hi).sign() >= 0 and (d - a).sign() <= 0:
            # case 5: entirely right of the absorber
            gamma = _frac_R(nt, g)
            delta = gamma + (d - g)
        else:
            return None  # otherwise row: S = empty
        if (delta - a).sign() > 0:
            return None  # image ran over the seam: next guard round fails
        if (delta - gamma).sign() <= 0:
            break
        if any((gamma - r[0]).sign() == 0 and (delta - r[1]).sign() == 0 for r in removed):
            break  # revisit: stable cycle of holes
        removed.append((gamma, delta))
    S = PeriodicSet.full(a)
    for g, d in removed:
        S = S.minus(PeriodicSet.make(a, [(g, d)]))
    return S


def test_table_agrees_on_rational_fixtures():
    for nt in (NT77, NT73, NT23_7):
        assert _table_S_rational(nt) == compute_S(nt).S


def test_table_agrees_on_irrational_fixture():
    assert _table_S_irrational(NT_PI) == compute_S(NT_PI).S


def test_table_empty_matches_empty_S():
    # 24/7 exhausts the circle hole by hole (no otherwise row fires)
    table = _table_S_rational(nt_of("6/7", 1, "24/7"))
    assert table is not None and table.is_empty
    assert compute_S(nt_of("6/7", 1, "24/7")).S.is_empty


def test_table_cross_check_small_survey():
    # all on-grid dynamical-region triples with q <= 8, c in (1, 6)
    from gaborbox import RegionTag, region_tag

    checked = 0
    for q in range(2, 10):
        for p in range(1, q):
            if F(p, q).denominator != q:
                continue
            a = rat(F(p, q))
            for k in range(q + 1, 8 * q):
                nt = normalize(a, rat(1), rat(F(k, q)))
                if region_tag(nt) is not RegionTag.XIII:
                    continue
                table = _table_S_rational(nt)
                S = compute_S(nt).S
                if table is None:
                    assert S.is_empty
                else:
                    assert table == S
                checked += 1
    assert checked > 100

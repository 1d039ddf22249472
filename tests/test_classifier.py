"""Closed-form classification: region dispatch, witnesses, off-grid recursion."""

from fractions import Fraction as F

import pytest

from gaborbox import RegionTag, classifier, classify, normalize, rat, region_tag
from gaborbox.classifier import (
    GcdCondition,
    IrrationalParams,
    RecursionPair,
    _search_obstruction_irrational,
    _xiii_search,
    classify_off_grid,
    classify_triple,
    classify_with_S_existence,
)
from gaborbox.dynsys import compute_S
from gaborbox.errors import NonPositiveInput, RegionUnsupported
from gaborbox.exactnum import ExactReal, pi_context, surd_context
from gaborbox.oracle import on_grid_survey
from reference_scan import floor_sum_passes

PI = pi_context()


def verdict(a, b, c):
    return classify(rat(F(a)), rat(F(b)), rat(F(c))).verdict


def nt_of(a, b, c):
    return normalize(rat(F(a)), rat(F(b)), rat(F(c)))


# -- named fixtures -------------------------------------------------------------

def test_named_verdicts():
    assert verdict("13/17", 1, "77/17") == "Frame"
    assert verdict("13/17", 1, "73/17") == "Frame"
    assert verdict("6/7", 1, "23/7") == "Frame"
    assert verdict("13/17", 1, "75/17") == "NotFrame"
    assert verdict("3/4", 1, 3) == "NotFrame"


def test_pi_fixture_verdict():
    d = classify(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    assert d.verdict == "Frame"
    assert d.region is RegionTag.XII


def test_rejects_nonpositive_inputs():
    with pytest.raises(NonPositiveInput):
        classify(rat(0), rat(1), rat(3))


# -- easy regions -----------------------------------------------------------------

def test_region_i_to_iv():
    assert verdict(4, 1, 3) == "NotFrame"          # I: a > c
    assert verdict(3, 1, 3) == "NotFrame"          # II with a > b
    assert verdict("3/4", "1/2", 3) == "NotFrame"  # III: b <= a
    assert verdict("3/4", 4, 3) == "Frame"         # IV: c <= b


def test_region_ii_frame_iff_a_le_b():
    assert verdict(1, 1, 1) == "Frame"
    assert verdict(1, 2, 1) == "Frame"
    assert verdict(2, 1, 2) == "NotFrame"


def test_region_v_always_frame():
    assert verdict("1/4", 1, "9/4") == "Frame"


def test_region_viii_always_frame():
    assert verdict("4/5", 1, "3/2") == "Frame"


def test_region_ix_frame_with_empty_S():
    d = classify(rat(F(7, 9)), rat(1), rat(F(7, 2)))
    assert (d.verdict, d.region) == ("Frame", RegionTag.IX)


# -- divisor-flavoured regions VI / VII --------------------------------------------

def test_region_vi_cases():
    # a=2/5, c=27/10: f=2, p/q=2/5, c0=7/10; gcd(f+1, p) = gcd(3,2)=1 != f+1
    # case 1 obstruction needs c0 > b - g*b/q = 1 - 1/5 = 4/5: 7/10 < 4/5 -> Frame
    d = classify_triple(nt_of("2/5", 1, "27/10"))
    assert d.verdict == "Frame"
    # push c0 above the threshold: c0 = 9/10 -> NotFrame by case 1
    d = classify_triple(nt_of("2/5", 1, "29/10"))
    assert d.verdict == "NotFrame"
    assert isinstance(d.witness, GcdCondition)
    assert d.witness.case_id == "1"


def test_region_vi_irrational_always_frame():
    a = PI.num(0, F(1, 8))  # pi/8 ~ 0.393; c0 = 7/10 sits above both a and b-a
    nt = normalize(a, rat(1), rat(F(27, 10)))
    assert region_tag(nt) is RegionTag.VI
    assert classify_triple(nt).verdict == "Frame"


@pytest.mark.parametrize("a, c, region, case", [
    ("2/3", "11/3", "VI", "1"), ("3/4", "11/4", "VI", "2"), ("1/2", 2, "VII", "3"),
    ("2/3", "13/3", "VII", "4"), ("3/4", "13/4", "VII", "5"), ("2/5", "31/10", "VII", "4"),
    ("3/4", "11/2", "X", "X"), ("3/4", "13/2", "XI", "XI")])
def test_gcd_witnesses_are_hashable_values(a, c, region, case):
    # a GcdCondition holds ints and ExactReal thresholds, so a NotFrame
    # decision on VI, VII, X or XI hashes, and alike in another context
    d = classify(rat(F(a)), rat(1), rat(F(c)))
    assert (str(d.region), d.verdict, d.witness.case_id) == (region, "NotFrame", case)
    assert all(type(v) in (int, ExactReal) for _, v in d.witness.values)
    sq2 = surd_context(2)
    e = classify(sq2.num(F(a)), sq2.num(1), sq2.num(F(c)))
    assert e == d and hash(e) == hash(d)


def test_region_vii_case3_zero_offset():
    d = classify_triple(nt_of("3/4", 1, 3))
    assert d.verdict == "NotFrame"
    assert isinstance(d.witness, GcdCondition)
    assert d.witness.case_id == "3"


def test_region_vii_cases_4_5():
    # a=3/5, c=16/5: f=3, c0=1/5, g=gcd(3,3)=3=f: case 5 needs c0 < g b/q - b/q = 2/5
    d = classify_triple(nt_of("3/5", 1, "16/5"))
    assert d.verdict == "NotFrame"
    assert d.witness.case_id == "5"
    # a=3/7, c=16/7: f=2, g=gcd(2,3)=1 != f: case 4 needs 0 < c0 < g b/q = 1/7
    # c0 = 2/7 >= 1/7 -> no obstruction
    assert classify_triple(nt_of("3/7", 1, "16/7")).verdict == "Frame"


def test_region_vii_irrational_frame_unless_c0_zero():
    a = PI.num(0, F(1, 4))
    nt = normalize(a, rat(1), rat(3))  # c0 = 0: boundary case 3 applies even irrationally
    assert region_tag(nt) is RegionTag.VII
    assert classify_triple(nt).verdict == "NotFrame"
    # c0 = 1/10 > 0: no gcd threshold on an irrational ratio
    nt = normalize(a, rat(1), rat(F(31, 10)))
    assert region_tag(nt) is RegionTag.VII
    assert classify_triple(nt) == ("Frame", RegionTag.VII, None)


# -- boundary regions X / XI ---------------------------------------------------------

def test_region_x_condition():
    # (4/5, 1, 7/2): f=3, p=4, f+1=p; c0=1/2 > b-a+b/q = 2/5 -> NotFrame
    d = classify_triple(nt_of("4/5", 1, "7/2"))
    assert d.region is RegionTag.X
    assert d.verdict == "NotFrame"
    # shrink c0 to 2/5 <= 2/5 -> Frame
    d = classify_triple(nt_of("4/5", 1, "17/5"))
    assert d.region is RegionTag.X
    assert d.verdict == "Frame"


def test_region_xi_condition():
    # (4/5, 1, 9/2): f=4=p; Frame iff c0 >= a - b/q = 3/5; c0=1/2 falls short
    d = classify_triple(nt_of("4/5", 1, "9/2"))
    assert d.region is RegionTag.XI
    assert d.verdict == "NotFrame"
    d = classify_triple(nt_of("4/5", 1, "23/5"))  # c0 = 3/5 on the boundary
    assert d.region is RegionTag.XI
    assert d.verdict == "Frame"


# -- irrational obstruction (XII) ------------------------------------------------------

def test_cond_xii_pi_fixture_is_boundary_frame():
    nt = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    d, hit = classify_with_S_existence(nt)
    assert hit and d.witness is None  # the search hits expr == a: no obstruction
    assert d.verdict == "Frame"


def test_cond_xii_planted_obstruction():
    # c = 11 - 7pi/4 = (d1+1)(f+1)(b-a) + (d2+1)f(b-a) + 4a at (d1,d2)=(0,0), f=5
    nt = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(11, F(-7, 4)))
    d = classify_triple(nt)
    assert d.verdict == "NotFrame"
    assert isinstance(d.witness, IrrationalParams)
    assert (d.witness.d1, d.witness.d2) == (0, 0)
    # the dynamics agrees: S survives and eats measure
    from gaborbox.dynsys import measure_identity

    rep = compute_S(nt)
    assert not rep.S.is_empty
    assert not measure_identity(nt, rep.S)


def test_cond_xii_agrees_with_dynamics_sqrt2():
    from gaborbox.dynsys import measure_identity

    SQ = surd_context(2)
    cases = [
        (SQ.num(0, F(2, 5)), SQ.num(9, F(-16, 5)), "Frame"),
        (SQ.num(0, F(5, 12)), SQ.num(13, F(-55, 12)), "NotFrame"),
    ]
    for a, c, expect in cases:
        nt = normalize(a, rat(1), c)
        assert region_tag(nt) is RegionTag.XII
        assert classify_triple(nt).verdict == expect
        rep = compute_S(nt)
        dyn = "Frame" if rep.S.is_empty or measure_identity(nt, rep.S) else "NotFrame"
        assert dyn == expect


def test_many_survivor_family_counts_windows_in_few_floors(monkeypatch):
    # a = 239/338*sqrt2, b = 1, c = 3 + v*(1 - a): c0 = v*(b - a), so every s
    # in about [v/4, v/3] survives the cut
    a, b = surd_context(2).num(0, F(239, 338)), rat(1)
    calls = 0
    floor_pair = classifier._floor_pair

    def counting(*args):
        nonlocal calls
        calls += 1
        return floor_pair(*args)

    monkeypatch.setattr(classifier, "_floor_pair", counting)
    assert classify(a, b, 3 + 1600 * (1 - a)).verdict == "NotFrame"
    # a few floors per count; a residue scan takes about v**2/40 of them
    assert calls < 5000, calls
    for v in (100, 200, 400, 800, 1600):
        d1 = v // 4 - 1
        assert classify(a, b, 3 + v * (1 - a)).witness == IrrationalParams(
            d1=d1, d2=0, m=0, e_count=d1), v


def test_xii_search_ends_at_its_first_hit(monkeypatch):
    # on the many-survivor family the first s the cut keeps, s = v/4, is a
    # hit: one window count per triple, where about v/12 values of s survive
    a, b = surd_context(2).num(0, F(239, 338)), rat(1)
    calls = 0
    window_count = classifier._window_count

    def counting(*args):
        nonlocal calls
        calls += 1
        return window_count(*args)

    monkeypatch.setattr(classifier, "_window_count", counting)
    for v in (100, 1600, 6400):
        calls, d1 = 0, v // 4 - 1
        assert classify(a, b, 3 + v * (1 - a)).witness == IrrationalParams(
            d1=d1, d2=0, m=0, e_count=d1), v
        assert calls == 1, (v, calls)


def test_floor_sums_stop_at_their_n_1_pass(monkeypatch):
    # once n = 1 a floor sum is the one floor of b/m; the loop it replaced
    # made a pass there and went on, each later pass adding 0.  On the
    # costliest raster cells (a = p/(p+1) near 1, b = 1) every floor sum
    # gives the old loop's total, with three floors per pass at n >= 2 and
    # one at n = 1
    calls = 0
    floor_pair, floor_sum = classifier._floor_pair, classifier._floor_sum

    def counting(*args):
        nonlocal calls
        calls += 1
        return floor_pair(*args)

    sums = []

    def tallied(*args):
        nonlocal calls
        calls = 0
        total = floor_sum(*args)
        sums.append((args, total, calls))
        return total

    monkeypatch.setattr(classifier, "_floor_pair", counting)
    monkeypatch.setattr(classifier, "_floor_sum", tallied)
    for p in (16, 17, 18, 19):
        for k in range(19, 44):
            classify(rat(F(p, p + 1)), rat(1), rat(F(k, 8)))
    monkeypatch.undo()
    went_on = 0
    for args, total, floors in sums:
        want, passes = floor_sum_passes(*args)
        assert total == want, args
        assert floors == 3 * sum(n > 1 for n in passes) + (1 in passes), (args, passes)
        went_on += passes.count(1) > 1  # the old loop's pass after n = 1
    assert went_on


# -- on-grid rational obstruction (XIII) ------------------------------------------------

def test_cond_xiii_75_17_case8():
    w = classify_triple(nt_of("13/17", 1, "75/17")).witness
    assert w is not None
    assert w.case_id == 8
    assert (w.d1, w.d2, w.d3, w.d4, w.N) == (0, 0, 0, 1, 3)
    assert w.delta == rat(0)


def test_cond_xiii_frames_have_no_witness():
    for spec_ in (("13/17", 1, "77/17"), ("13/17", 1, "73/17"), ("6/7", 1, "23/7")):
        nt = nt_of(*spec_)
        assert nt.region is RegionTag.XIII, spec_
        assert classify_triple(nt).witness is None, spec_


def test_cond_xiii_case6():
    # c0 < gcd(a, c1) with f*(g1-c0) != g1, hunted on small grids
    found = None
    for q in range(3, 10):
        for p in range(2, q):
            if F(p, q).denominator != q:
                continue
            for k in range(q + 1, 8 * q):
                nt = normalize(rat(F(p, q)), rat(1), rat(F(k, q)))
                if region_tag(nt) is RegionTag.XIII:
                    w = classify_triple(nt).witness
                    if w is not None and w.case_id == 6:
                        found = nt
                        break
            if found:
                break
        if found:
            break
    assert found is not None
    assert classify_triple(found).verdict == "NotFrame"
    assert compute_S(found).S.is_empty is False


def test_characterize_S_nonempty_matches_dynamics():
    # classify_with_S_existence gives the decision and the S bit, None
    # where no closed form says
    sq2 = surd_context(2)
    triples = [*on_grid_survey(5, 1, 8, regions=tuple(RegionTag)),
               *(nt_of(*spec_) for spec_ in (
                   ("13/17", 1, "77/17"), ("13/17", 1, "75/17"), ("6/7", 1, "24/7"),
                   ("7/9", 1, "7/2"), ("4/5", 1, "7/2"), ("4/5", 1, "9/2"),
                   ("13/17", 1, "22/5"))),
               normalize(PI.num(0, F(1, 4)), rat(1), PI.num(11, F(-7, 4))),
               normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))),
               normalize(sq2.num(0, F(2, 3)), rat(1), rat(F(7, 2)))]
    seen = set()
    for nt in triples:
        decision, nonempty = classify_with_S_existence(nt)
        assert decision == classify_triple(nt)
        if nonempty is not None:
            assert nonempty == (not compute_S(nt).S.is_empty)
        seen.add((str(nt.region), nonempty))
    assert {("V", False), ("IX", False), ("X", True), ("XI", True), ("XII", True),
            ("XII", False), ("XIII", True), ("XIII", False), ("XIV", None)} <= seen


# -- off-grid recursion (XIV) -------------------------------------------------------------

def test_xiv_33_10_frame():
    nt = nt_of("6/7", 1, "33/10")
    assert region_tag(nt) is RegionTag.XIV
    d = classify_triple(nt)
    assert d.verdict == "Frame"
    assert isinstance(d.witness, RecursionPair)
    # snap-down/up land on the b/q = 1/7 grid around 33/10
    assert d.witness.low.verdict == "Frame"
    assert d.witness.high.verdict == "Frame"


def test_xiv_22_5_not_frame():
    nt = nt_of("13/17", 1, "22/5")
    d = classify_triple(nt)
    assert d.verdict == "NotFrame"
    assert isinstance(d.witness, RecursionPair)
    assert "NotFrame" in (d.witness.low.verdict, d.witness.high.verdict)


def test_xiv_snap_values():
    nt = nt_of("6/7", 1, "33/10")
    pair = classify_off_grid(nt).witness
    # c_down = floor(c*q/b) b/q = 23/7, c_up = 24/7: both land on known fixtures
    assert pair.low.verdict == verdict("6/7", 1, "23/7")
    assert pair.high.verdict == verdict("6/7", 1, "24/7")
    assert pair.low.region is RegionTag.XIII
    assert pair.high.region is RegionTag.XIII


def test_grid_searches_reject_triples_outside_their_region():
    on_grid = nt_of("13/17", 1, "77/17")
    off_grid = nt_of("13/17", 1, "151/34")
    irrational = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    for nt in (on_grid, irrational):
        with pytest.raises(RegionUnsupported):
            classify_off_grid(nt)
    for nt in (off_grid, irrational):
        with pytest.raises(RegionUnsupported):
            _xiii_search(nt)
    # a rational a/b leaves the XII solve without a unique candidate, and
    # c < b (f = 0, so c1 = 0) leaves it no gap count to solve for
    for nt in (on_grid, off_grid, normalize(PI.num(0, F(1, 4)), rat(1), rat(F(1, 2)))):
        with pytest.raises(RegionUnsupported):
            _search_obstruction_irrational(nt)


def test_dilation_invariance_spot():
    for lam in (F(1, 3), F(2), F(7, 5)):
        base = classify(rat(F(13, 17)), rat(1), rat(F(75, 17))).verdict
        scaled = classify(rat(F(13, 17) * lam), rat(lam), rat(F(75, 17) * lam)).verdict
        assert scaled == base

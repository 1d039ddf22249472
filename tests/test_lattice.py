"""Normalization, the region decision diagram, and periodic interval algebra."""

import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gaborbox import NormalizedTriple, PeriodicSet, RegionTag, normalize, rat, region_tag
from gaborbox.errors import ContextMismatch, NonPositiveInput, PeriodMismatch, PrecisionExhausted
from gaborbox.exactnum import _pi_enclosure, pi_context, surd_context
from gaborbox.lattice import black_hole_R, black_hole_Rt, form_value, grid_value

PI = pi_context()


def nt_of(a, b, c):
    return normalize(rat(F(a)), rat(F(b)), rat(F(c)))


# -- normalization ------------------------------------------------------------

def test_normalize_fields_rational():
    nt = nt_of("13/17", 1, "77/17")
    assert nt.floor_cb == 4
    assert nt.c0 == rat(F(77, 17)) - 4 * rat(1)  # 9/17
    assert nt.c1 == rat(F(4 % 1)) + rat(F(4, 1)) - rat(F(13, 17)) * 5  # 4 mod 13/17 = 3/17
    assert nt.rational == (13, 17)
    assert nt.c_on_grid is True


def test_normalize_off_grid_flag():
    nt = nt_of("6/7", 1, "33/10")
    assert nt.rational == (6, 7)
    assert nt.c_on_grid is False  # 33/10 not in Z/7


def test_normalize_irrational():
    a = PI.num(0, F(1, 4))
    c = PI.num(23, F(-11, 2))
    nt = normalize(a, rat(1), c)
    assert nt.rational is None
    assert nt.c_on_grid is None
    assert nt.floor_cb == 5
    # c0 = c - 5 = 18 - 11 pi/2; c1 = 5 mod pi/4 = 5 - 6 pi/4
    assert nt.c0 == PI.num(18, F(-11, 2))
    assert nt.c1 == PI.num(5, F(-3, 2))


def _grid_units(nt):
    """The X0 of a, b, c, c0 and c1 in an integral form, whose X1 are all 0."""
    assert nt.form.integral and not any(X[1] for X in nt.form[2:]), nt.form
    return tuple(X[0] for X in nt.form[2:])


def test_normalize_grid_units():
    # in units of b/(q*D): D = 1 on the grid
    nt = nt_of("13/17", 1, "77/17")
    assert _grid_units(nt) == (13, 17, 77, 77 - 4 * 17, 4 * 17 % 13)
    assert nt.form.beta == (1, 0, 17)
    # c/(b/q) = 231/10, f = 3: D = 10
    nt = nt_of("6/7", 1, "33/10")
    assert _grid_units(nt) == (60, 70, 231, 231 - 3 * 70, 10 * (3 * 7 % 6))
    assert nt.form.beta == (1, 0, 70)
    # the units of b/q do not depend on the scale of b
    assert _grid_units(nt_of("13/34", "1/2", "77/34")) == _grid_units(nt_of("13/17", 1, "77/17"))
    sq2 = surd_context(2)
    on_grid = normalize(sq2.num(0, F(3, 4)), sq2.num(0, 1), sq2.num(0, F(7, 2)))
    assert _grid_units(on_grid) == (3, 4, 14, 2, 0)
    assert on_grid.form.beta == (0, 1, 4)  # sqrt2/4
    # b with a negative tau coefficient: q and D are still positive
    b = sq2.num(3, -1)
    for c, D in ((F(7, 2), 1), (F(33, 10), 5)):  # c/(b/4) = 14, 66/5
        nt = normalize(b * F(3, 4), b, b * c)
        assert (nt.rational, nt.c_on_grid) == ((3, 4), D == 1)
        assert _grid_units(nt) == _grid_units(nt_of("3/4", 1, c))
        assert nt.form.beta == (3, -1, 4 * D)
    # a/b rational but c/b irrational, and a/b irrational: units 1/L, a tau part
    on_pairs = (normalize(sq2.num(0, F(3, 4)), sq2.num(0, 1), rat(5)),
                normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))))
    for nt in on_pairs:
        assert not nt.form.integral and nt.form.beta == (1, 0, 4)
    # every pair maps back to its value
    for nt in (on_grid, *on_pairs, nt_of("6/7", 1, "33/10")):
        assert [form_value(nt.form, X) for X in nt.form[2:]] == [nt.a, nt.b, nt.c, nt.c0, nt.c1]


def test_grid_value_is_b_times_n_over_m_in_its_context():
    sq2 = surd_context(2)
    for b in (rat(F(3, 2)), sq2.num(F(7, 5)), sq2.num(1, F(1, 3)), PI.num(0, F(1, 4))):
        for n, m in ((0, 7), (5, 7), (-3, 14), (22, 4)):
            got, want = grid_value(b, n, m), b * F(n, m)
            assert (got.x0, got.x1, got.ctx) == (want.x0, want.x1, want.ctx)


def test_mixed_contexts_raise_on_rational_values():
    # the walk compares integers, so normalize itself checks a against c
    with pytest.raises(ContextMismatch):
        normalize(surd_context(2).num(1), rat(1), surd_context(3).num(3))


def pi_cap_offset():
    """x - 3 for x the midpoint of a 6000-bit enclosure of pi: c = pi - (x - 3)
    is 3 plus a difference below 2**-6000, whose sign no enclosure up to the
    4096-bit cap settles."""
    lo, hi = _pi_enclosure(6000)
    return (lo + hi) / 2 - 3


def test_normalize_floor_past_the_pi_cap_raises():
    # floor(c/b) needs the sign of c - 3: the pair floor refines to the cap
    P = pi_context()
    with pytest.raises(PrecisionExhausted):
        normalize(P.num(0, F(1, 4)), P.num(1), P.num(-pi_cap_offset(), 1))
    assert P._bits == 4096


def test_normalize_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        nt_of(0, 1, 3)
    with pytest.raises(NonPositiveInput):
        nt_of(1, -1, 3)


_SQ2 = surd_context(2)
# zero and negative values: rational, in a surd context with no tau part, and
# with a tau part (1 - sqrt2 < 0, sqrt2 - 3/2 < 0 < 3/2 - sqrt2 is positive)
_NONPOSITIVE = [rat(0), rat(-1), rat(F(-1, 2)), _SQ2.num(0), _SQ2.num(F(-3, 2)),
                _SQ2.num(1, -1), _SQ2.num(F(-3, 2), 1), PI.num(3, -1)]


@pytest.mark.parametrize("bad", _NONPOSITIVE, ids=lambda v: v.render())
@pytest.mark.parametrize("at", [0, 1, 2], ids=["a", "b", "c"])
def test_normalize_rejects_zero_and_negative_in_each_place(at, bad):
    # the other two are positive, rational or not
    for good in ((rat(F(3, 4)), rat(1), rat(F(7, 2))),
                 (_SQ2.num(0, F(1, 2)), rat(1), _SQ2.num(F(7, 2)))):
        args = list(good)
        args[at] = bad
        with pytest.raises(NonPositiveInput, match=f"^{'abc'[at]} must be positive"):
            normalize(*args)


def test_normalize_checks_each_input_in_order():
    # the first bad input decides the error: its type or its sign
    with pytest.raises(NonPositiveInput):
        normalize(rat(-1), 1, rat(3))
    with pytest.raises(TypeError):
        normalize(rat(1), 1, rat(-3))
    with pytest.raises(TypeError):
        normalize(F(1, 2), rat(1), rat(3))
    assert normalize(_SQ2.num(F(1, 2)), _SQ2.num(1), _SQ2.num(F(7, 2))) == nt_of("1/2", 1, "7/2")


# -- region tags ---------------------------------------------------------------

def test_region_tags_walkthrough():
    # one witness per reachable rational region
    assert region_tag(nt_of(4, 1, 3)) is RegionTag.I       # a > c
    assert region_tag(nt_of(3, 1, 3)) is RegionTag.II      # a = c
    assert region_tag(nt_of("3/4", "1/2", 3)) is RegionTag.III  # b <= a < c
    assert region_tag(nt_of("3/4", 4, 3)) is RegionTag.IV  # c <= b
    assert region_tag(nt_of("1/4", 1, "9/4")) is RegionTag.V
    assert region_tag(nt_of("2/5", 1, "27/10")) is RegionTag.VI
    assert region_tag(nt_of("3/4", 1, 3)) is RegionTag.VII
    assert region_tag(nt_of("4/5", 1, "3/2")) is RegionTag.VIII  # floor(c/b) = 1
    assert region_tag(nt_of("7/9", 1, "7/2")) is RegionTag.IX
    assert region_tag(nt_of("4/5", 1, "7/2")) is RegionTag.X  # c1 = 3/5 = 2a-b
    assert region_tag(nt_of("4/5", 1, "9/2")) is RegionTag.XI  # c1 = 4 mod 4/5 = 0
    assert region_tag(nt_of("13/17", 1, "77/17")) is RegionTag.XIII
    assert region_tag(nt_of("13/17", 1, "22/5")) is RegionTag.XIV


def test_each_triple_walks_the_diagram_once(monkeypatch):
    from gaborbox import classify, lattice
    from gaborbox.oracle import triple_pipeline_check

    walks = []
    walk = lattice._walk_diagram
    monkeypatch.setattr(lattice, "_walk_diagram", lambda nt: walks.append(nt) or walk(nt))
    # closed form, construction, S characterization and grid orbits all read nt.region
    assert triple_pipeline_check(nt_of("13/17", 1, "77/17")) is None
    assert len(walks) == 1
    walks.clear()
    # the off-grid triple and its two grid neighbours
    assert classify(rat(F(13, 17)), rat(1), rat(F(22, 5))).region is RegionTag.XIV
    assert len(walks) == 3


def test_region_is_derived_not_compared():
    nt = nt_of("13/17", 1, "77/17")
    assert nt.region is region_tag(nt) is RegionTag.XIII
    with pytest.raises(TypeError):
        NormalizedTriple(nt.a, nt.b, nt.c, nt.floor_cb, nt.rational, nt.c_on_grid, RegionTag.I)
    # equality and hash read (a, b, c), not what they derive
    for name in ("floor_cb", "rational", "c_on_grid", "form", "region"):
        other = copy.copy(nt)
        object.__setattr__(other, name, RegionTag.I)
        assert other == nt and hash(other) == hash(nt), name
    # so the same rational values in two contexts give equal triples, and
    # another a, b or c gives another triple
    in_pi = normalize(PI.num(F(13, 17)), PI.num(1), PI.num(F(77, 17)))
    assert in_pi.form.ctx is not nt.form.ctx
    assert in_pi == nt and hash(in_pi) == hash(nt)
    others = (nt_of("12/17", 1, "77/17"), nt_of("13/17", 2, "77/17"), nt_of("13/17", 1, "75/17"))
    assert all(other != nt for other in others) and len({nt, in_pi, *others}) == 4


def test_region_tag_irrational_is_xii():
    nt = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    assert region_tag(nt) is RegionTag.XII


def test_black_holes():
    nt = nt_of("13/17", 1, "77/17")
    lo, hi = black_hole_R(nt)
    assert (lo, hi) == (rat(F(5, 17)), rat(F(9, 17)))
    lo, hi = black_hole_Rt(nt)
    assert (lo, hi) == (rat(F(3, 17)), rat(F(7, 17)))
    # the start read off the form is c0 + a - b, its context object included,
    # also where the form's context differs (first: a rational c in pi's)
    sq2 = surd_context(2)
    for a, b, c in ((rat(F(13, 17)), rat(1), PI.num(F(77, 17))),
                    (PI.num(F(13, 17)), rat(1), rat(F(77, 17))),
                    (sq2.num(0, F(1, 2)), rat(1), rat(F(7, 2))),
                    (PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))):
        nt = normalize(a, b, c)
        lo, hi = black_hole_R(nt)
        want = nt.c0 + nt.a - nt.b
        assert (lo.x0, lo.x1) == (want.x0, want.x1) and lo.ctx is want.ctx and hi == nt.c0


# -- PeriodicSet construction ---------------------------------------------------

def iv(lo, hi):
    return (rat(F(lo)), rat(F(hi)))


def test_make_merges_touching_intervals():
    s = PeriodicSet.make(rat(1), [iv("1/4", "1/2"), iv("1/2", "3/4")])
    assert s.intervals == (iv("1/4", "3/4"),)


def test_make_rejects_out_of_period():
    with pytest.raises(ValueError):
        PeriodicSet.make(rat(1), [iv(0, 2)])


def test_from_wrapped_splits_at_seam():
    s = PeriodicSet.from_wrapped(rat(1), [iv("3/4", "5/4")])
    assert s.intervals == (iv(0, "1/4"), iv("3/4", 1))
    assert len(s.components_cyclic()) == 1  # seam fuses back cyclically
    # an empty and an inverted pair are reduced like any other, then dropped
    pairs = [iv("3/4", "5/4"), iv("7/3", "7/3"), iv("5/2", "-1/3")]
    assert PeriodicSet.from_wrapped(rat(1), pairs) == s


def test_from_wrapped_reduces_far_intervals():
    s = PeriodicSet.from_wrapped(rat(1), [iv("17/4", "19/4")])
    assert s.intervals == (iv("1/4", "3/4"),)


def test_from_wrapped_refuses_an_interval_longer_than_one_period():
    with pytest.raises(ValueError, match="longer than one period"):
        PeriodicSet.from_wrapped(rat(1), [iv("1/4", "3/2")])
    # exactly one period is the whole circle
    assert PeriodicSet.from_wrapped(rat(1), [iv("1/4", "5/4")]) == PeriodicSet.full(rat(1))


def test_sets_and_triples_can_be_neither_set_nor_deleted():
    s = PeriodicSet.make(rat(1), [iv(0, "1/2")])
    nt = nt_of("13/17", 1, "77/17")
    for obj, name in ((s, "period"), (s, "intervals"), (nt, "a"), (nt, "region")):
        with pytest.raises(AttributeError, match="immutable; cannot set"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="immutable; cannot delete"):
            delattr(obj, name)
    assert s.period == rat(1) and nt.region is RegionTag.XIII


def test_measure_and_contains():
    s = PeriodicSet.make(rat(F(13, 17)), [iv("2/17", "3/17"), iv("9/17", "10/17")])
    assert s.measure() == rat(F(2, 17))
    assert s.contains(rat(F(2, 17)))
    assert not s.contains(rat(F(3, 17)))  # half-open
    assert s.contains(rat(F(2, 17)) + rat(F(13, 17)))  # periodicity


# -- set algebra -----------------------------------------------------------------

def test_union_intersect_complement_minus():
    p = rat(1)
    x = PeriodicSet.make(p, [iv(0, "1/2")])
    y = PeriodicSet.make(p, [iv("1/4", "3/4")])
    assert x.union(y).intervals == (iv(0, "3/4"),)
    assert x.intersect(y).intervals == (iv("1/4", "1/2"),)
    assert x.complement().intervals == (iv("1/2", 1),)
    assert x.minus(y).intervals == (iv(0, "1/4"),)


def test_restrict_keeps_its_window_contract():
    p = rat(1)
    x = PeriodicSet.make(p, [iv("1/8", "1/2"), iv("5/8", "7/8")])
    assert x.restrict(rat(F(1, 4)), rat(F(3, 4))).intervals == (iv("1/4", "1/2"), iv("5/8", "3/4"))
    # an empty or inverted window is the empty set, also inside an interval
    # and also when it lies outside the period
    for lo, hi in (("1/4", "1/4"), ("3/8", "1/4"), ("5/8", "5/8"), (2, -1), (0, 0), (1, 1)):
        assert x.restrict(rat(F(lo)), rat(F(hi))).is_empty, (lo, hi)
    n = PeriodicSet.make(8, [(1, 4), (5, 7)])
    assert n.restrict(2, 2).is_empty and n.restrict(3, 2).is_empty and n.restrict(9, -1).is_empty
    # a nonempty window reaching outside [0, period] raises
    for lo, hi in (("-1/4", "1/2"), ("1/2", "3/2"), ("-1", "2")):
        with pytest.raises(ValueError):
            x.restrict(rat(F(lo)), rat(F(hi)))
    for lo, hi in ((-1, 3), (6, 9)):
        with pytest.raises(ValueError):
            n.restrict(lo, hi)


def test_shift_reduces_mod_period():
    p = rat(1)
    x = PeriodicSet.make(p, [iv("3/4", 1)])
    shifted = x.shift(rat(F(1, 2)))
    assert shifted.intervals == (iv("1/4", "1/2"),)


def test_set_algebra_takes_only_periodic_sets():
    x = PeriodicSet.make(rat(1), [iv(0, "1/2")])
    for other in ([iv("1/4", "3/4")], rat(1), None):
        for op in (x.union, x.intersect):
            with pytest.raises(TypeError, match="expected a PeriodicSet"):
                op(other)


def test_period_mismatch_raises():
    x = PeriodicSet.make(rat(1), [iv(0, "1/2")])
    y = PeriodicSet.make(rat(2), [(rat(0), rat(1))])
    with pytest.raises(PeriodMismatch):
        x.union(y)
    # equal intervals over another period make another set
    assert x != PeriodicSet.make(rat(2), [iv(0, "1/2")])


def test_equal_periods_held_by_distinct_objects_match():
    # _check settles a shared period object by identity; equal periods that
    # are different objects (here in two contexts) still pass the exact test
    x = PeriodicSet.make(rat(1), [iv(0, "1/2")])
    y = PeriodicSet.make(pi_context().num(1), [iv("1/4", "3/4")])
    assert x.period is not y.period
    assert x.union(y).intervals == (iv(0, "3/4"),)
    assert x.minus(y).intervals == (iv(0, "1/4"),)


# -- randomized algebra laws ------------------------------------------------------

endpoints = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    min_size=2, max_size=8,
)


def build(fracs):
    fracs = sorted(set(fracs))
    pairs = [(rat(lo), rat(hi)) for lo, hi in zip(fracs[::2], fracs[1::2])]
    return PeriodicSet.make(rat(1), pairs)


@given(xs=endpoints, ys=endpoints)
@settings(max_examples=300)
def test_de_morgan(xs, ys):
    x, y = build(xs), build(ys)
    assert x.union(y).complement() == x.complement().intersect(y.complement())


@given(xs=endpoints, ys=endpoints)
@settings(max_examples=300)
def test_measure_inclusion_exclusion(xs, ys):
    x, y = build(xs), build(ys)
    lhs = x.union(y).measure() + x.intersect(y).measure()
    assert lhs == x.measure() + y.measure()


@given(xs=endpoints, shift=st.fractions(min_value=-3, max_value=3, max_denominator=40))
@settings(max_examples=300)
def test_shift_preserves_measure(xs, shift):
    x = build(xs)
    assert x.shift(rat(shift)).measure() == x.measure()


@given(xs=endpoints)
@settings(max_examples=300)
def test_complement_involution(xs):
    x = build(xs)
    assert x.complement().complement() == x


# -- integer endpoints ---------------------------------------------------------------------

grid = st.lists(st.integers(0, 60), min_size=2, max_size=8)


def build_int(ks):
    ks = sorted(set(ks))
    return PeriodicSet.make(60, list(zip(ks[::2], ks[1::2])))


def on_reals(E):
    """An integer set of period 60 as the set of period 1 it stands for."""
    return PeriodicSet(rat(1), tuple((rat(F(lo, 60)), rat(F(hi, 60))) for lo, hi in E.intervals))


@given(xs=grid, ys=grid, shift=st.integers(-200, 200))
@settings(max_examples=300)
def test_integer_endpoints_give_the_sets_their_rational_images_give(xs, ys, shift):
    x, y = build_int(xs), build_int(ys)
    rx, ry = on_reals(x), on_reals(y)
    assert rx == build([F(k, 60) for k in xs])
    for op in ("union", "intersect", "minus"):
        assert on_reals(getattr(x, op)(y)) == getattr(rx, op)(ry), op
    for lo, hi in ((xs[0], ys[0]), (ys[0], xs[0]), (xs[0], xs[0])):
        assert on_reals(x.restrict(lo, hi)) == rx.restrict(rat(F(lo, 60)), rat(F(hi, 60)))
    assert on_reals(x.complement()) == rx.complement()
    assert on_reals(x.shift(shift)) == rx.shift(rat(F(shift, 60)))
    assert rat(F(x.measure(), 60)) == rx.measure()
    assert [(rat(F(lo, 60)), rat(F(hi, 60))) for lo, hi in x.components_cyclic()] == \
        rx.components_cyclic()
    assert x.contains(shift) == rx.contains(rat(F(shift, 60)))
    with pytest.raises(ValueError):
        PeriodicSet.make(60, [(-1, 5)])

"""Exact number field: arithmetic, comparisons, floor/mod, the pi enclosure."""

import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gaborbox import PeriodicSet, exactnum
from gaborbox.errors import ContextMismatch, PrecisionExhausted, UnsupportedRange
from gaborbox.exactnum import (
    RATIONAL,
    ExactReal,
    NumberContext,
    _pi_enclosure,
    _sqrt_enclosure,
    floor_div,
    mod,
    pi_context,
    rat,
    square_free_decompose,
    surd_context,
)

PI = pi_context()
SQRT2 = surd_context(2)

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


# -- construction and contexts ----------------------------------------------

def test_rational_context_rejects_tau_coefficient():
    with pytest.raises(ContextMismatch):
        ExactReal(RATIONAL, F(1), F(1))


def test_mixing_two_irrational_contexts_fails():
    x = PI.num(0, 1)
    y = SQRT2.num(0, 1)
    with pytest.raises(ContextMismatch):
        x + y


def test_rational_mixes_into_any_context():
    x = PI.num(1, F(1, 2))  # 1 + pi/2
    y = rat(F(3, 4))
    assert (x + y).x0 == F(7, 4)
    assert (x + y).x1 == F(1, 2)


@given(fractions)
def test_equal_values_hash_equal_across_contexts(x):
    values = [x, rat(x), PI.num(x, 0), SQRT2.num(x, 0)]
    for v in values:
        assert v == rat(x)
        assert hash(v) == hash(x)
    assert PI.num(x, 0) in {rat(x)}


def test_equality_never_raises_across_contexts():
    # a rational value is one number in every context; a tau coefficient
    # stands for a different number in each
    assert PI.num(1) == SQRT2.num(1)
    assert len({pi_context().num(1), surd_context(2).num(1)}) == 1
    assert not PI.num(1, 1) == SQRT2.num(1, 1)
    assert PI.num(1, 1) != SQRT2.num(1, 1)
    assert PI.num(1, 1) == pi_context().num(1, 1)
    assert len({PI.num(1, 1), SQRT2.num(1, 1), PI.num(1, 1)}) == 2


def test_equal_periodic_sets_hash_equal_across_contexts():
    half = F(1, 2)
    x = PeriodicSet.make(rat(1), [(rat(0), rat(half))])
    y = PeriodicSet.make(PI.num(1, 0), [(PI.num(0, 0), PI.num(half, 0))])
    assert x == y
    assert hash(x) == hash(y)
    assert y in {x}


def test_surd_context_normalizes_square_factor():
    # sqrt(8) = 2*sqrt(2): both contexts must compare equal
    assert surd_context(8) == surd_context(2)


def test_surd_context_bounds_the_radicand_before_factoring():
    t0 = time.monotonic()
    for d in (10**12 + 1, 10**18 + 9, 10**5000):
        with pytest.raises(UnsupportedRange, match=r"at most 10\*\*12"):
            surd_context(d)
    assert time.monotonic() - t0 < 1.0
    # 10**12 - 1 = 3**2 * 111111111111, inside the bound
    assert surd_context(10**12 - 1).d == 111111111111


def test_square_free_decompose():
    assert square_free_decompose(8) == (2, 2)
    assert square_free_decompose(12) == (2, 3)
    assert square_free_decompose(49) == (7, 1)
    assert square_free_decompose(1) == (1, 1)
    with pytest.raises(ValueError, match="positive"):
        square_free_decompose(0)


def test_context_constructor_refuses_bad_kinds_and_radicands():
    with pytest.raises(ValueError, match="unknown context kind"):
        NumberContext("complex")
    for d in (None, 1, -3):
        with pytest.raises(ValueError, match="d >= 2"):
            NumberContext("surd", d=d)
    with pytest.raises(ValueError, match="rational"):
        NumberContext("surd", d=9)


def test_rational_context_has_no_basis_or_enclosure():
    with pytest.raises(ValueError, match="no irrational basis"):
        RATIONAL.basis_symbol
    with pytest.raises(ValueError, match="no enclosure"):
        RATIONAL.enclosure()


def test_only_ints_and_fractions_enter_as_exact_values():
    # a float, a string or a Decimal would enter the decision path as the
    # binary fraction or the parse it stands for
    for bad in (0.1, "1/3", Decimal("0.1")):
        with pytest.raises(TypeError, match="int or a Fraction"):
            rat(bad)
    for bad in (0.5, Decimal("0.1")):
        with pytest.raises(TypeError, match="int or a Fraction"):
            SQRT2.num(bad)
        with pytest.raises(TypeError, match="int or a Fraction"):
            PI.num(1, bad)
    # a Fraction enters as it is; an int, a bool and a Fraction subclass
    # convert to a plain Fraction
    x = F(3, 7)
    assert rat(x).x0 is x and SQRT2.num(x, x).x1 is x
    assert (rat(x) + x).x0 == F(6, 7)

    class Half(F):
        pass

    for v, want in ((Half(1, 2), F(1, 2)), (True, F(1)), (5, F(5))):
        for got in (rat(v).x0, PI.num(0, v).x1):
            assert type(got) is F and got == want


def test_arithmetic_with_a_non_number_raises_type_error():
    x = SQRT2.num(1, F(1, 2))
    for op in (lambda: x + "1", lambda: x - "1", lambda: "1" - x, lambda: x * 0.5,
               lambda: x / "2", lambda: x < 0.5):
        with pytest.raises(TypeError):
            op()
    assert square_free_decompose(97) == (1, 97)


# -- field operations --------------------------------------------------------

@given(x0=fractions, x1=fractions, y0=fractions, y1=fractions)
def test_addition_is_coefficientwise(x0, x1, y0, y1):
    s = PI.num(x0, x1) + PI.num(y0, y1)
    assert (s.x0, s.x1) == (x0 + y0, x1 + y1)


@given(x0=fractions, x1=fractions, q=fractions)
def test_rational_scaling(x0, x1, q):
    prod = PI.num(x0, x1) * rat(q)
    assert (prod.x0, prod.x1) == (x0 * q, x1 * q)


def test_surd_product_closes_in_field():
    # (1 + sqrt2)(3 - 2 sqrt2) = 3 - 2 sqrt2 + 3 sqrt2 - 4 = -1 + sqrt2
    p = SQRT2.num(1, 1) * SQRT2.num(3, -2)
    assert (p.x0, p.x1) == (F(-1), F(1))


def test_pi_times_pi_is_rejected():
    # pi^2 leaves the linear model Q + Q*pi
    with pytest.raises(ValueError):
        PI.num(0, 1) * PI.num(0, 1)


def test_surd_division():
    # 1/(1+sqrt2) = sqrt2 - 1
    q = rat(1) / SQRT2.num(1, 1)
    assert (q.x0, q.x1) == (F(-1), F(1))


def test_pi_division_by_irrational_rejected():
    with pytest.raises(ValueError):
        rat(1) / PI.num(0, 1)


def test_pi_division_with_a_rational_ratio():
    # a quotient of two pi values in Q + Q*pi only when their ratio is rational
    q = PI.num(0, 2) / PI.num(0, 1)
    assert q == rat(2) and not q.x1
    assert PI.num(3, 6) / PI.num(1, 2) == rat(3)


# -- sign, order, ratio ------------------------------------------------------

def test_sign_certifies_tight_pi_combinations():
    # 355/113 is famously close to pi (about 2.7e-7 above it)
    assert PI.num(F(355, 113), -1).sign() == 1
    assert PI.num(F(-355, 113), 1).sign() == -1
    assert PI.num(0, 0).sign() == 0


def test_sign_certifies_tight_surd_combinations():
    # 99/70 > sqrt2 by about 7e-5
    assert SQRT2.num(F(99, 70), -1).sign() == 1
    assert SQRT2.num(F(-99, 70), 1).sign() == -1


def test_pi_enclosure_refines_to_4096_bits_then_raises():
    ctx = pi_context()  # a fresh context starts at 64 bits
    lo, hi = ctx.enclosure()
    widths = [hi - lo]
    for _ in range(6):  # 64 -> 128 -> ... -> 4096
        lo, hi = ctx.refine()
        assert lo < F(355, 113) and hi > F(333, 106)
        widths.append(hi - lo)
    assert all(0 < w <= v / 2 for v, w in zip(widths, widths[1:]))
    assert widths[-1] < F(1, 2**4000) < widths[-2]
    with pytest.raises(PrecisionExhausted):
        ctx.refine()
    assert ctx.enclosure() == (lo, hi)


def test_fresh_pi_contexts_share_the_start_and_refine_alone():
    one, two = pi_context(), pi_context()
    assert one.enclosure() == two.enclosure() == _pi_enclosure(64)
    finer = one.refine()
    assert finer == _pi_enclosure(128) and one.enclosure() == finer
    assert two._bits == 64 and two.enclosure() == _pi_enclosure(64)
    assert pi_context().enclosure() == _pi_enclosure(64)


def test_fresh_surd_contexts_share_the_start_per_radicand_and_refine_alone():
    # surd_context(12) carries d = 3, so it starts from the sqrt(3) enclosure
    one, two = surd_context(3), surd_context(12)
    start = one.enclosure()
    assert two.enclosure() is start and start == _sqrt_enclosure(3, 64)
    assert surd_context(2).enclosure() == _sqrt_enclosure(2, 64) != start
    assert one.refine() == _sqrt_enclosure(3, 128) and one.enclosure() != start
    assert two._bits == 64 and two.enclosure() is start
    assert surd_context(3).enclosure() is start


def test_surd_starts_held_are_bounded():
    held = exactnum._surd_start
    assert held.cache_info().maxsize == exactnum._SURD_STARTS_HELD == 64
    # more square-free radicands than are held: each start is still right
    radicands = [d for d in range(2, 400) if square_free_decompose(d)[0] == 1][:100]
    for d in radicands:
        assert surd_context(d).enclosure() == _sqrt_enclosure(d, 64)
    assert held.cache_info().currsize == 64
    d = radicands[-1]
    assert surd_context(d).enclosure() is surd_context(d).enclosure()


def test_pi_enclosure_contains_mpmath_pi_at_every_level():
    # differential check of the integer Machin sum against mpmath's pi at
    # twice the precision, at every multiple of 64 bits up to the cap
    mpmath = pytest.importorskip("mpmath")
    for bits in range(64, 4097, 64):
        lo, hi = _pi_enclosure(bits)
        with mpmath.workprec(2 * bits):
            ref = +mpmath.pi
        ref = F(int(ref.man)) * F(2) ** int(ref.exp)
        assert lo < ref < hi, bits
        assert hi - lo <= F(1, 2**bits), bits


@given(x0=small_fractions, x1=small_fractions)
def test_sign_matches_float(x0, x1):
    v = PI.num(x0, x1)
    approx = float(x0) + float(x1) * 3.141592653589793
    if abs(approx) > 1e-9:
        assert v.sign() == (1 if approx > 0 else -1)


def test_ratio_detects_rational_quotients():
    x = PI.num(2, 3)  # 2 + 3 pi
    assert x.ratio(PI.num(F(2, 5), F(3, 5))) == F(5)
    assert x.ratio(PI.num(1, 1)) is None
    assert rat(0).ratio(PI.num(0, 1)) == 0


def test_comparison_total_order():
    vals = [PI.num(0, 1), rat(3), PI.num(0, F(1, 2)), rat(F(22, 7))]
    ordered = sorted(vals)
    assert [float(v) for v in ordered] == sorted(float(v) for v in vals)


# -- floor_div / mod ---------------------------------------------------------

@given(t=fractions, a=fractions.filter(lambda q: q > 0))
def test_floor_div_rational_matches_fraction_floor(t, a):
    assert floor_div(rat(t), rat(a)) == (t / a).__floor__()


@given(k=st.integers(-40, 40), num=st.integers(1, 30), den=st.integers(1, 30))
def test_floor_div_exact_multiples_of_pi(k, num, den):
    a = PI.num(0, F(num, den))
    t = k * a
    # t = k*a exactly: floor must be k even though the quotient is irrational-over-irrational
    assert floor_div(t, a) == k
    assert mod(t, a).is_zero()


@given(x0=small_fractions, x1=small_fractions,
       a0=small_fractions, a1=small_fractions)
@settings(max_examples=300)
def test_floor_div_defining_inequality(x0, x1, a0, a1):
    a = PI.num(a0, a1)
    if a.sign() <= 0:
        a = -a
    if a.sign() == 0:
        return
    t = PI.num(x0, x1)
    k = floor_div(t, a)
    assert (t - k * a).sign() >= 0
    assert (t - (k + 1) * a).sign() < 0


def test_floor_pair_refines_a_modulus_its_enclosure_cannot_sign():
    # m = 5168247530883 - 3654502875938*sqrt2 is about 9.7e-14: the start
    # enclosure of sqrt2 puts its lower bound below 0, so the floor refines
    # before it bounds the quotient, then bounds and certifies it at once
    ctx = surd_context(2)  # a fresh context, at its start enclosure
    m0, m1 = 5168247530883, -3654502875938
    unsigned = []
    refine = ctx.refine

    def refine_once_counted():
        lo, hi = ctx.enclosure()
        unsigned.append(m0 + m1 * hi <= 0)  # m's lower bound, as m1 < 0
        return refine()

    ctx.refine = refine_once_counted
    assert exactnum._floor_pair(ctx, 1, 0, m0, m1) == 10336495061765
    assert unsigned == [True]


def test_mod_lands_in_window():
    a = PI.num(0, F(1, 4))
    t = PI.num(23, F(-11, 2))
    r = mod(t, a)
    assert r.sign() >= 0
    assert (r - a).sign() < 0


# -- rendering ---------------------------------------------------------------

def test_render_roundtrips_common_shapes():
    assert rat(F(13, 17)).render() == "13/17"
    assert PI.num(0, F(1, 4)).render() == "1/4*pi"
    assert PI.num(23, F(-11, 2)).render() == "23-11/2*pi"
    assert SQRT2.num(1, 1).render() == "1+sqrt(2)"


def test_float_conversion_close():
    assert abs(float(PI.num(0, F(1, 4))) - 0.7853981633974483) < 1e-15


def test_float_of_a_rational_value_reads_x0_without_an_enclosure(monkeypatch):
    # values with no tau part, in every context, skip the enclosure: it is
    # [x0, x0], whose midpoint is x0
    values = [rat(F(13, 17)), rat(F(-1, 3)), rat(0), PI.num(F(7, 2)),
              SQRT2.num(F(-5, 9)), surd_context(3).num(10**20 + 1)]
    assert [v.interval() for v in values] == [(v.x0, v.x0) for v in values]
    monkeypatch.setattr(exactnum, "_interval", lambda *args: pytest.fail("enclosure built"))
    assert [float(v) for v in values] == [float(v.x0) for v in values]


def test_float_of_an_irrational_value_is_its_enclosure_midpoint():
    SQRT3 = surd_context(3)
    for v in (PI.num(0, F(1, 4)), PI.num(23, F(-11, 2)), SQRT3.num(F(1, 2), F(-7, 3)),
              SQRT3.num(0, F(15, 2)), SQRT2.num(1, 1)):
        lo, hi = v.interval()
        assert float(v) == float((lo + hi) / 2)

"""Average-sampling stability reduction."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborbox import classify, rat, sampling_stable
from gaborbox.errors import ContextMismatch, NonPositiveInput
from gaborbox.exactnum import pi_context, surd_context

PI = pi_context()

positive_fractions = st.fractions(min_value=F(1, 40), max_value=50, max_denominator=40)


def test_degenerate_integer_route():
    # c/b = 3 in Z, >= 2: density comparison only
    d = sampling_stable(rat(F(3, 4)), rat(1), rat(3))
    assert d.route == "DegenerateInteger"
    assert d.stable is True           # a <= b
    assert d.underlying is None
    # note the matching box-window triple is NOT a frame; the degenerate
    # kernel genuinely departs from the equivalence here
    assert classify(rat(F(3, 4)), rat(1), rat(3)).verdict == "NotFrame"

    assert sampling_stable(rat(F(5, 4)), rat(1), rat(4)).stable is False
    assert sampling_stable(rat(1), rat(1), rat(2)).stable is True  # a = b boundary


def test_integer_ratio_below_two_is_not_degenerate():
    # c/b = 1 stays on the equivalence route
    d = sampling_stable(rat(F(3, 4)), rat(2), rat(2))
    assert d.route == "ViaGaborEquivalence"


def test_equivalence_route_carries_the_frame_decision():
    d = sampling_stable(rat(F(13, 17)), rat(1), rat(F(77, 17)))
    assert d.route == "ViaGaborEquivalence"
    assert d.stable is True
    assert d.underlying is not None and d.underlying.verdict == "Frame"

    d = sampling_stable(rat(F(13, 17)), rat(1), rat(F(75, 17)))
    assert d.stable is False
    assert d.underlying.verdict == "NotFrame"


def test_irrational_ratio_routes_via_equivalence():
    d = sampling_stable(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    assert d.route == "ViaGaborEquivalence"
    assert d.stable is True


def test_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        sampling_stable(rat(0), rat(1), rat(3))
    with pytest.raises(NonPositiveInput):
        sampling_stable(rat(1), rat(-2), rat(3))


def test_mixed_contexts_are_refused_on_both_routes():
    # a in pi, c in sqrt(3): c/b = 3 would take the degenerate route and
    # c/b = 7/2 the equivalence route, but the triple is refused first
    sq3 = surd_context(3)
    for c in (sq3.num(3), sq3.num(F(7, 2))):
        with pytest.raises(ContextMismatch):
            sampling_stable(PI.num(0, F(1, 4)), rat(1), c)


@settings(max_examples=300, deadline=None)
@given(a=positive_fractions, b=positive_fractions, k=st.integers(2, 9))
def test_degenerate_route_is_pure_density(a, b, k):
    d = sampling_stable(rat(a), rat(b), rat(b * k))
    assert d.route == "DegenerateInteger"
    assert d.stable == (a <= b)


@settings(max_examples=300, deadline=None)
@given(a=positive_fractions, b=positive_fractions, c=positive_fractions)
def test_routes_partition_all_inputs(a, b, c):
    d = sampling_stable(rat(a), rat(b), rat(c))
    ratio = c / b
    if ratio.denominator == 1 and ratio >= 2:
        assert d.route == "DegenerateInteger"
    else:
        assert d.route == "ViaGaborEquivalence"
        assert d.stable == d.underlying.is_frame

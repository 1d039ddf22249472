"""Differential tests: the stacked-array numeric diagnostic against the
loop-per-entry build it replaced (`reference_numeric.py`).  The float
operations are the same, so the bounds must be equal with `==`, every
snap of A_est to 0.0 included."""

from fractions import Fraction as F
from math import gcd

import pytest

import reference_numeric as ref
from gaborbox import normalize, rat
from gaborbox.errors import BadTruncation
from gaborbox.exactnum import pi_context, surd_context
from gaborbox.lattice import RegionTag
from gaborbox.oracle import numeric_frame_bounds, on_grid_survey

PI = pi_context()
SQ3 = surd_context(3)


def _outcome(bounds, nt, half_width):
    """The bounds, or the type and message of the error raised instead."""
    try:
        return bounds(nt, half_width=half_width)
    except BadTruncation as e:
        return type(e), str(e)


def _assert_matches(triples, half_width):
    count = 0
    for nt in triples:
        want = _outcome(ref.numeric_frame_bounds, nt, half_width)
        assert _outcome(numeric_frame_bounds, nt, half_width) == want, (nt.a, nt.c)
        count += 1
    return count


@pytest.mark.parametrize("qmax, half_width, total", [(8, 8, 833), (4, 32, 107)])
def test_phase_symbols_match_reference_a_below_b(qmax, half_width, total):
    triples = on_grid_survey(qmax, 1, 8, regions=tuple(RegionTag))
    assert _assert_matches(triples, half_width) == total


def test_phase_symbols_match_reference_a_above_b():
    # q < p: the symbol is wide, so A_est is 0.0 without an SVD bound
    triples = [normalize(rat(F(p, q)), rat(1), rat(F(k, q)))
               for q in range(1, 9) for p in range(q + 1, 3 * q) if gcd(p, q) == 1
               for k in range(p + 1, 8 * q, 3)]
    assert _assert_matches(triples, 8) == len(triples) == 490


IRRATIONAL = [
    normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))),
    normalize(SQ3.num(0, F(1, 2)), rat(1), SQ3.num(0, F(15, 2))),  # no columns at hw 4
    normalize(SQ3.num(0, F(1, 2)), rat(1), SQ3.num(15, F(-13, 2))),
    normalize(SQ3.num(0, F(1, 2)), rat(1), SQ3.num(0, F(5, 2))),
]


@pytest.mark.parametrize("half_width", [4, 8, 32, 128])
def test_windowed_matches_reference_on_irrational_fixtures(half_width):
    assert _assert_matches(IRRATIONAL, half_width) == 4


@pytest.mark.slow
@pytest.mark.parametrize("half_width", [8, 32])
def test_phase_symbols_match_reference_q_le_16(half_width):
    triples = on_grid_survey(16, 1, 8, regions=tuple(RegionTag))
    assert _assert_matches(triples, half_width) == 5955

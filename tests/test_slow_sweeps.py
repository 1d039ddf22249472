"""Sweeps into the parameter ranges the solved certificate searches and the
linear grid oracle opened up.  They are marked slow and stay out of the
default run:

    python -m pytest -m slow tests/test_slow_sweeps.py
"""

import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from gaborbox import classify, compute_S, normalize, rat
from gaborbox.dynsys import measure_identity
from gaborbox.exactnum import floor_div, pi_context, surd_context
from gaborbox.lattice import RegionTag, region_tag
from gaborbox.oracle import grid_frame_decision, triple_pipeline_check

pytestmark = pytest.mark.slow


def _large_p_draw(seed, count):
    """On-grid triples a = p/q, b = 1, c = k/q in (1, 8) with p in [2000, 5000]
    and q - p in {1, 2, 3, 7}."""
    rng = random.Random(seed)
    while count:
        p = rng.randint(2000, 5000)
        q = p + rng.choice((1, 2, 3, 7))
        if gcd(p, q) != 1:
            continue
        count -= 1
        yield normalize(rat(F(p, q)), rat(1), rat(F(rng.randint(q + 1, 8 * q - 1), q)))


def test_pipeline_agreement_on_large_p_draw():
    regions = Counter()
    for nt in _large_p_draw(seed=14, count=200):
        regions[nt.region] += 1
        assert triple_pipeline_check(nt) is None, (nt.a, nt.c)
    assert sum(regions.values()) == 200
    # the grid oracle joins in on both of its regions that the draw reaches
    assert regions[RegionTag.XIII] and regions[RegionTag.VIII], regions


SQ2, SQ3, PI = surd_context(2), surd_context(3), pi_context()


@pytest.mark.parametrize(
    "ctx, x1, k0, k1, n",
    [(SQ2, F(12, 17), F(7, 2), 0, 576), (SQ2, F(41, 58), F(7, 2), 0, 3362),
     (SQ2, F(70, 99), F(7, 2), 0, 19600), (SQ2, F(239, 338), F(7, 2), 0, 114242),
     (SQ2, F(408, 577), F(7, 2), 0, 665856), (SQ2, F(1393, 1970), F(7, 2), 0, 3880898),
     (SQ3, F(56, 97), F(7, 2), 0, 18816), (SQ3, F(209, 362), F(7, 2), 0, 262086),
     (PI, F(7, 22), F(7, 2), 0, 2484), (PI, F(3183, 10000), F(7, 2), 0, 32196),
     (SQ2, F(239, 338), 5, -3, 114242),
     # the many-survivor family c = 3 + v*(1 - a): c0 = v*(b - a), and every s
     # in about [v/4, v/3] survives the cut
     (SQ3, F(209, 362), 1603, -1600, 262086), (SQ3, F(209, 362), 6403, -6400, 262086),
     (PI, F(3183, 10000), 1603, -1600, 32196), (PI, F(3183, 10000), 6403, -6400, 32196)],
    ids=["n576", "n3362", "n19600", "n114242", "n665856", "n3880898", "sqrt3-n18816",
         "sqrt3-n262086", "pi-n2484", "pi-n32196", "notframe-n114242",
         "sqrt3-v1600", "sqrt3-v6400", "pi-v1600", "pi-v6400"],
)
def test_irrational_large_n_agrees_with_invariant_set(ctx, x1, k0, k1, n):
    # a = x1*sqrt(d) or x1*pi, b = 1, c = k0 + k1*a
    a, b = ctx.num(0, x1), rat(1)
    c = k1 * a + k0
    nt = normalize(a, b, c)
    assert region_tag(nt) is RegionTag.XII
    assert floor_div(a, b - a) == n
    S = compute_S(nt).S
    dyn = "Frame" if S.is_empty or measure_identity(nt, S) else "NotFrame"
    assert classify(a, b, c).verdict == dyn
    if k1:
        assert dyn == "NotFrame"


@pytest.mark.parametrize("k", [35001, 35003])
def test_rational_p_9999_agrees_with_grid_oracle(k):
    # a = 9999/10000: case 8 counts windows of s up to about 5,000 steps
    a, b, c = rat(F(9999, 10000)), rat(1), rat(F(k, 10000))
    nt = normalize(a, b, c)
    assert nt.region is RegionTag.XIII
    assert classify(a, b, c).verdict == grid_frame_decision(nt)


@pytest.mark.parametrize("k, verdict", [(3500001, "Frame"), (3500003, "NotFrame")])
def test_three_routes_agree_at_p_999999(k, verdict):
    # a = 999999/10**6: the grid oracle walks back over 999,999 indices per map
    a, b, c = rat(F(999999, 10**6)), rat(1), rat(F(k, 10**6))
    nt = normalize(a, b, c)
    assert nt.region is RegionTag.XIII
    S = compute_S(nt).S
    dyn = "Frame" if S.is_empty or measure_identity(nt, S) else "NotFrame"
    assert classify(a, b, c).verdict == dyn == grid_frame_decision(nt) == verdict

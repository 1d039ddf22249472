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
from gaborbox.exactnum import floor_div, surd_context
from gaborbox.lattice import RegionTag, region_tag
from gaborbox.oracle import triple_pipeline_check

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


@pytest.mark.parametrize(
    "x1, n",
    [(F(12, 17), 576), (F(41, 58), 3362), (F(70, 99), 19600), (F(239, 338), 114242)],
    ids=["n576", "n3362", "n19600", "n114242"],
)
def test_irrational_large_n_agrees_with_invariant_set(x1, n):
    sq2 = surd_context(2)
    a, b, c = sq2.num(0, x1), rat(1), rat(F(7, 2))
    nt = normalize(a, b, c)
    assert region_tag(nt) is RegionTag.XII
    assert floor_div(a, b - a) == n
    S = compute_S(nt).S
    dyn = "Frame" if S.is_empty or measure_identity(nt, S) else "NotFrame"
    assert classify(a, b, c).verdict == dyn

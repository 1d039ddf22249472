"""Sweeps into the parameter ranges the solved certificate searches opened
up.  They are marked slow and stay out of the default run:

    python -m pytest -m slow tests/test_slow_sweeps.py
"""

from fractions import Fraction as F

import pytest

from gaborbox import classify, compute_S, normalize, rat
from gaborbox.dynsys import measure_identity
from gaborbox.exactnum import floor_div, surd_context
from gaborbox.lattice import RegionTag, region_tag
from gaborbox.oracle import on_grid_survey, triple_pipeline_check

pytestmark = pytest.mark.slow


def test_pipeline_agreement_sweep_q_le_20():
    total = 0
    for nt in on_grid_survey(20, 1, 8, regions=tuple(RegionTag)):
        total += 1
        assert triple_pipeline_check(nt) is None, (nt.a, nt.c)
    assert total == 12081


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

"""Grid-orbit oracle vs the exact pipelines, and the singular-value diagnostic."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gaborbox import classify, compute_D, compute_S, normalize, rat
from gaborbox.errors import BadTruncation, OracleInconsistency, RegionUnsupported
from gaborbox.exactnum import mod, pi_context, surd_context
from gaborbox.lattice import PeriodicSet, RegionTag
from gaborbox.dynsys import apply_R, apply_Rt
from gaborbox.oracle import (
    GridModel,
    _D_flags,
    _S_flags,
    build_grid_model,
    grid_frame_decision,
    numeric_frame_bounds,
    on_grid_survey,
    triple_pipeline_check,
)
from reference_scan import bh_backward, bh_forward, point, step_backward, step_forward

PI = pi_context()


def nt_of(a, b, c):
    return normalize(rat(F(a)), rat(F(b)), rat(F(c)))


NT77 = nt_of("13/17", 1, "77/17")
NT75 = nt_of("13/17", 1, "75/17")
NT73 = nt_of("13/17", 1, "73/17")
NT23_7 = nt_of("6/7", 1, "23/7")
NT24_7 = nt_of("6/7", 1, "24/7")


def lift(gm, flags):
    """Flags of indices -> union of cells [j b/q, (j+1) b/q) as a period-a set."""
    step = gm.nt.b * F(1, gm.q)
    return PeriodicSet.make(
        gm.nt.a, [(point(gm, j), point(gm, j) + step) for j, flag in enumerate(flags) if flag]
    )


# -- model construction ------------------------------------------------------------

def test_grid_model_fields():
    gm = build_grid_model(NT77)
    assert (gm.p, gm.q, gm.f) == (13, 17, 4)
    assert (gm.j0, gm.j1, gm.e) == (9, 3, 12)
    assert gm.hole_len == 4
    assert point(gm, 4) == rat(F(4, 17))


def test_grid_model_rejections():
    with pytest.raises(RegionUnsupported):
        build_grid_model(nt_of("13/17", 1, "22/5"))  # c off the b/q grid
    with pytest.raises(RegionUnsupported):
        build_grid_model(nt_of("1/4", 1, "9/4"))  # maps undefined (c0 <= b-a)
    with pytest.raises(RegionUnsupported):
        build_grid_model(
            normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
        )


def test_absorbers_mirror_continuous_black_holes():
    gm = build_grid_model(NT77)
    # forward absorber [c0+a-b, c0) = [5/17, 9/17) -> indices 5..8
    assert bh_forward(gm) == frozenset({5, 6, 7, 8})
    # backward absorber [c1, c1+b-a) = [3/17, 7/17) -> indices 3..6
    assert bh_backward(gm) == frozenset({3, 4, 5, 6})


# -- the maps' steps agree with the exact maps --------------------------------------

def image(gm, moves, j):
    """Index j moved by the run that holds it, or j itself in none."""
    for lo, n, shift in moves:
        if (j - lo) % gm.p < n:
            return (j + shift) % gm.p
    return j


def test_steps_shadow_exact_maps():
    for nt in (NT77, NT75, NT23_7, nt_of("4/5", 1, "17/5"), nt_of("4/5", 1, "23/5")):
        gm = build_grid_model(nt)
        forward, backward = gm.forward_moves(), gm.backward_moves()
        for j in range(gm.p):
            t = point(gm, j)
            fwd = image(gm, forward, j)
            assert mod(apply_R(t, nt), nt.a) == point(gm, fwd), (nt, j)
            bwd = image(gm, backward, j)
            assert mod(apply_Rt(t, nt), nt.a) == point(gm, bwd), (nt, j)
            # the steps the reference oracles take, one index at a time
            assert (fwd, bwd) == (step_forward(gm, j), step_backward(gm, j)), (nt, j)


# -- S and D through the integer route ----------------------------------------------

def test_grid_S_lifts_to_exact_S():
    for nt in (NT77, NT75, NT73, NT23_7, NT24_7):
        gm = build_grid_model(nt)
        assert lift(gm, _S_flags(gm)) == compute_S(nt).S, nt


def test_grid_D_lifts_to_exact_D():
    for nt in (NT77, NT75, NT73, NT23_7):
        gm = build_grid_model(nt)
        S = compute_S(nt).S
        assert lift(gm, _D_flags(gm, _S_flags(gm))) == compute_D(nt, S), nt


def test_a_second_preimage_raises():
    # q < p in a hand-built model: the forward map's runs, moved by (f+1)*q
    # and by f*q, take 11 + 4 of the 13 indices, and both land on index 3,
    # from j = 0 and from j = 11
    gm = GridModel(NT77, 13, 11, 4, 9, 3, 12)
    first, last = gm.forward_moves()
    assert image(gm, [first], 0) == image(gm, [last], 11) == 3
    with pytest.raises(OracleInconsistency,
                       match="^a grid map moves 15 indices onto 13: an index has two preimages$"):
        _S_flags(gm)


def test_grid_verdicts_on_fixtures():
    assert grid_frame_decision(NT77) == "Frame"
    assert grid_frame_decision(NT73) == "Frame"
    assert grid_frame_decision(NT23_7) == "Frame"
    assert grid_frame_decision(NT24_7) == "Frame"
    assert grid_frame_decision(NT75) == "NotFrame"


def test_grid_verdict_has_no_closed_form_fallback():
    # the grid route stays independent of the classifier: regions I-VII,
    # even on their grid, and the off-grid XIV have no route
    on_grid = [nt_of(a, b, c) for a, b, c in (
        (4, 1, 3), (3, 1, 3), ("3/4", "1/2", 3), ("3/4", 4, 3), ("1/4", 1, "9/4"),
        ("2/5", 1, "14/5"), ("3/4", 1, 3))]
    assert [str(nt.region) for nt in on_grid] == ["I", "II", "III", "IV", "V", "VI", "VII"]
    assert all(nt.c_on_grid for nt in on_grid)
    for nt in on_grid + [nt_of("13/17", 1, "22/5")]:
        with pytest.raises(RegionUnsupported):
            grid_frame_decision(nt)


# -- numeric diagnostic ---------------------------------------------------------------

def test_numeric_bounds_frame_fixture_stable_in_width():
    vals = [numeric_frame_bounds(NT77, half_width=hw) for hw in (8, 16, 32)]
    for lo, hi in vals:
        assert abs(lo - 0.1894319161217494) < 1e-9
        assert hi <= math.sqrt(5 * 6) + 1e-9  # Schur row/column bound
    assert vals[-1][0] >= 0.5 * vals[0][0]


def test_numeric_bounds_nonframe_fixture_exactly_singular():
    for hw in (8, 32):
        lo, hi = numeric_frame_bounds(NT75, half_width=hw)
        assert lo == 0.0
        assert 0 < hi <= math.sqrt(5 * 6) + 1e-9


def test_numeric_bounds_input_guards():
    with pytest.raises(BadTruncation):
        numeric_frame_bounds(NT77, half_width=3)
    with pytest.raises(BadTruncation):
        numeric_frame_bounds(NT77, t_samples=0)
    with pytest.raises(BadTruncation):
        numeric_frame_bounds(nt_of("3/4", 4, 3))  # needs max(a, b) < c


def test_numeric_bounds_refuse_oversized_arrays(monkeypatch):
    import numpy

    def no_array(*args, **kwargs):
        raise AssertionError("an array was built before the size check")

    monkeypatch.setattr(numpy, "arange", no_array)
    sqrt3 = surd_context(3)
    irrational = normalize(sqrt3.num(0, F(1, 2)), rat(1), sqrt3.num(0, F(15, 2)))
    for nt, t_samples, half_width in (
        (nt_of("4999/5000", 1, "17501/5000"), 16, 8),  # 5000 x 4999 symbol
        (NT77, 10**9, 8),
        (NT77, 16, 10**9),  # phase count
        (irrational, 16, 4096),
        # past float range, and a t loop past the bound
        (NT77, 10**400, 8), (NT77, 16, 10**400), (irrational, 10**400, 8),
        (irrational, 16, 10**400), (irrational, 2**24 + 1, 8),
        (irrational, 2**20, 8),  # 2**20 matrices of 17 x 43 entries
    ):
        with pytest.raises(BadTruncation, match="more than 16777216"):
            numeric_frame_bounds(nt, t_samples=t_samples, half_width=half_width)


def test_numeric_bounds_vanish_when_q_below_p():
    # a = p/q > b: each q x p symbol has a kernel, so A_est is 0.0, and the
    # closed form (region III) agrees that none of these is a frame
    count = 0
    for q in range(1, 9):
        for p in range(q + 1, 3 * q):
            if math.gcd(p, q) != 1:
                continue
            for k in range(p + 1, 8 * q):
                nt = nt_of(F(p, q), 1, F(k, q))
                assert numeric_frame_bounds(nt)[0] == 0.0, nt.a
                assert classify(nt.a, nt.b, nt.c).verdict == "NotFrame", (nt.a, nt.c)
                count += 1
    assert count == 1427


def test_numeric_bounds_irrational_fallback_is_trend_only():
    nt = normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2)))
    lo8, hi8 = numeric_frame_bounds(nt, half_width=8)
    lo24, hi24 = numeric_frame_bounds(nt, half_width=24)
    assert 0 < lo24 < lo8  # plain truncation over-estimates and decays
    assert hi8 <= hi24 <= math.sqrt(6 * 8)


def test_bound_trends_script_reports_errors_without_traceback():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_bound_trends.py"),
         "--a", "13/17", "--c", "77/17", "--half-widths", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr == "error: half_width must be at least 4\n"


def test_bound_trends_script_rejects_t_samples_past_float_range():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_bound_trends.py"),
         "--a", "13/17", "--c", "77/17", "--t-samples", "9" * 400],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: t_samples or half_width is more than 16777216")
    assert out.stderr.count("\n") == 1


# -- cross-pipeline agreement ---------------------------------------------------------

def test_pipeline_check_fixtures_agree():
    triples = [
        NT77, NT75, NT73, NT23_7, NT24_7,
        nt_of("7/9", 1, "7/2"),      # empty-S region
        nt_of("4/5", 1, "17/5"),     # boundary lattice, on grid
        nt_of("4/5", 1, "23/5"),
        nt_of("4/5", 1, "7/2"),      # boundary lattice, off grid
        normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))),
    ]
    for nt in triples:
        assert triple_pipeline_check(nt) is None, nt


def test_pipeline_check_names_the_clash(monkeypatch):
    from gaborbox import oracle

    brief = "(a=13/17, b=1, c=77/17)"
    monkeypatch.setattr(oracle, "grid_frame_decision", lambda nt: "NotFrame")
    assert triple_pipeline_check(NT77) == (
        f"verdict clash on {brief}: closed-form=Frame, grid-orbits=NotFrame, "
        "measure-identity=Frame, two-solvability=Frame")
    monkeypatch.setattr(oracle, "compute_S",
                        lambda nt: compute_S(nt)._replace(S_units=PeriodicSet.empty(nt.form.A[0])))
    assert triple_pipeline_check(NT77) == (
        f"S-existence clash on {brief}: construction says empty")


def test_pipeline_walks_the_xiii_candidates_once(monkeypatch):
    from gaborbox import classifier

    walks = []
    walk = classifier._xiii_candidates
    monkeypatch.setattr(classifier, "_xiii_candidates", lambda nt: walks.append(nt) or walk(nt))
    # a NotFrame witness, a measure-critical candidate (Frame), no candidate
    for nt in (NT75, NT23_7, nt_of("4/5", 1, "12/5")):
        walks.clear()
        assert nt.region is RegionTag.XIII
        assert triple_pipeline_check(nt) is None
        assert len(walks) == 1, nt


def test_pipeline_runs_the_xii_search_once(monkeypatch):
    from gaborbox import classifier
    from gaborbox.exactnum import surd_context

    searches = []
    search = classifier._search_obstruction_irrational
    monkeypatch.setattr(classifier, "_search_obstruction_irrational",
                        lambda nt: searches.append(nt) or search(nt))
    sqrt2 = surd_context(2)
    # a NotFrame witness, a measure-critical hit (Frame), no hit (Frame)
    for nt, verdict in ((normalize(PI.num(0, F(1, 4)), rat(1), PI.num(11, F(-7, 4))), "NotFrame"),
                        (normalize(PI.num(0, F(1, 4)), rat(1), PI.num(23, F(-11, 2))), "Frame"),
                        (normalize(sqrt2.num(0, F(2, 3)), rat(1), rat(F(7, 2))), "Frame")):
        searches.clear()
        assert nt.region is RegionTag.XII
        assert classify(nt.a, nt.b, nt.c).verdict == verdict
        searches.clear()
        assert triple_pipeline_check(nt) is None
        assert len(searches) == 1, nt


def test_survey_enumerates_on_grid_generic_triples():
    survey = list(on_grid_survey(6, 1, 8, regions=(RegionTag.XIII,)))
    assert len(survey) == 20
    for nt in survey:
        assert nt.is_rational and nt.c_on_grid
        assert triple_pipeline_check(nt) is None, nt


def test_survey_respects_bounds():
    for nt in on_grid_survey(5, 2, 4, regions=(RegionTag.XIII,)):
        assert (nt.a - nt.b).sign() < 0
        cb = nt.c.ratio(nt.b)
        assert 2 < cb < 4

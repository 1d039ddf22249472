"""End-to-end acceptance gate.

Each test here freezes one deliverable of the package as a whole: named
verdicts, exact invariant-set fixtures, the covering-measure identity,
hole-collapse surgery data, cross-pipeline agreement sweeps (rational grid
and irrational spot checks), property-suite coverage, numeric and ergodic
diagnostics, and deterministic raster output.  Wall-clock budgets are part
of the contract and are asserted alongside the results.
"""

import time
from fractions import Fraction as F

from gaborbox import classify, normalize, rat
from gaborbox.classifier import classify_triple
from gaborbox.cli import main as cli_main
from gaborbox.dynsys import (
    birkhoff_average,
    compute_S,
    measure_identity,
    measure_identity_lhs,
)
from gaborbox.exactnum import pi_context, surd_context
from gaborbox.lattice import PeriodicSet, RegionTag, region_tag
from gaborbox.oracle import (
    numeric_frame_bounds,
    on_grid_survey,
    triple_pipeline_check,
)

PI = pi_context()
SQ2 = surd_context(2)
SQ3 = surd_context(3)

ONE = rat(1)


def nt_of(a, c):
    return normalize(rat(F(a)), ONE, rat(F(c)))


def rational_set(a, pairs):
    return PeriodicSet.make(
        rat(F(a)), [(rat(F(lo)), rat(F(hi))) for lo, hi in pairs]
    )


# --- 1. named verdicts ----------------------------------------------------

def test_named_triple_verdicts_under_a_second():
    t0 = time.monotonic()
    assert classify(rat(F(13, 17)), ONE, rat(F(77, 17))).verdict == "Frame"
    assert classify(rat(F(13, 17)), ONE, rat(F(73, 17))).verdict == "Frame"
    assert classify(rat(F(6, 7)), ONE, rat(F(23, 7))).verdict == "Frame"
    assert (
        classify(PI.num(0, F(1, 4)), ONE, PI.num(23, F(-11, 2))).verdict
        == "Frame"
    )
    assert classify(rat(F(13, 17)), ONE, rat(F(75, 17))).verdict == "NotFrame"
    assert classify(rat(F(3, 4)), ONE, rat(3)).verdict == "NotFrame"
    assert time.monotonic() - t0 < 1.0


# --- 2. exact invariant-set fixtures --------------------------------------

def test_invariant_set_fixtures_exact():
    cases = [
        ("13/17", "77/17", [("2/17", "3/17"), ("9/17", "10/17"), ("12/17", "13/17")]),
        ("13/17", "73/17", [("0", "1/17"), ("7/17", "8/17"), ("10/17", "11/17")]),
        ("13/17", "75/17", [("0", "3/17"), ("7/17", "13/17")]),
        ("6/7", "23/7", [("2/7", "3/7"), ("5/7", "6/7")]),
    ]
    for a, c, pairs in cases:
        assert compute_S(nt_of(a, c)).S == rational_set(a, pairs), (a, c)

    nt = normalize(PI.num(0, F(1, 4)), ONE, PI.num(23, F(-11, 2)))
    want = PeriodicSet.from_wrapped(nt.a, (
        (PI.num(18, F(-23, 4)), PI.num(11, F(-7, 2))),
        (PI.num(12, F(-15, 4)), PI.num(5, F(-3, 2))),
        (PI.num(6, F(-7, 4)), PI.num(17, F(-21, 4))),
    ))
    assert compute_S(nt).S == want


# --- 3. covering-measure identity -----------------------------------------

def test_measure_identity_values_match_verdicts():
    cases = [
        ("13/17", "77/17", F(13, 17), True),
        ("13/17", "75/17", F(39, 17), False),
        ("6/7", "23/7", F(6, 7), True),
    ]
    for a, c, lhs, holds in cases:
        nt = nt_of(a, c)
        S = compute_S(nt).S
        assert measure_identity_lhs(nt, S) == rat(lhs), (a, c)
        assert measure_identity(nt, S) is holds, (a, c)
        want = "Frame" if holds else "NotFrame"
        assert classify_triple(nt).verdict == want, (a, c)


# --- 4. surgery data -------------------------------------------------------

def test_surgery_values_77_17():
    rep = compute_S(nt_of("13/17", "77/17"))
    assert rep.Ya == rat(F(3, 17))
    assert rep.theta == rat(F(1, 17))
    assert rep.marks.kind == "cyclic"
    assert rep.marks.order == 3
    assert (rep.rational_extras.delta, rep.rational_extras.delta_prime) == (
        rat(F(2, 17)),
        rat(0),
    )


# --- 5. rational-grid pipeline agreement -----------------------------------

def test_pipeline_agreement_sweep_q_le_12():
    t0 = time.monotonic()
    total = 0
    generic = 0  # the two regions the dynamical construction targets
    for nt in on_grid_survey(12, 1, 8, regions=tuple(RegionTag)):
        total += 1
        if region_tag(nt) in (RegionTag.XII, RegionTag.XIII):
            generic += 1
        assert triple_pipeline_check(nt) is None
    elapsed = time.monotonic() - t0
    assert total == 2573
    assert generic == 301
    assert elapsed < 300.0


def test_pipeline_agreement_sweep_q_le_20():
    total = 0
    for nt in on_grid_survey(20, 1, 8, regions=tuple(RegionTag)):
        total += 1
        assert triple_pipeline_check(nt) is None, (nt.a, nt.c)
    assert total == 12081


# --- 6. irrational spot agreement ------------------------------------------

# (x0, x1, y0, y1, verdict): a = x0 + x1*tau, b = 1, c = y0 + y1*tau.
# All 150 lie in the generic irrational regime; the verdict column was
# produced by the dynamical route and is pinned here against the closed form.

PI_TRIPLES = [
    (F("0"), F("1/4"), F("5"), F("-3/4"), "NotFrame"),
    (F("0"), F("1/4"), F("7"), F("-3/2"), "Frame"),
    (F("0"), F("1/4"), F("9"), F("-2"), "Frame"),
    (F("0"), F("1/4"), F("8"), F("-7/4"), "Frame"),
    (F("0"), F("1/4"), F("12"), F("-3"), "Frame"),
    (F("0"), F("1/4"), F("11"), F("-11/4"), "Frame"),
    (F("0"), F("1/4"), F("15"), F("-4"), "Frame"),
    (F("0"), F("1/5"), F("5"), F("-4/5"), "Frame"),
    (F("0"), F("1/5"), F("7"), F("-7/5"), "Frame"),
    (F("0"), F("1/5"), F("10"), F("-12/5"), "Frame"),
    (F("0"), F("1/5"), F("12"), F("-3"), "Frame"),
    (F("0"), F("1/5"), F("15"), F("-4"), "Frame"),
    (F("0"), F("1/5"), F("9"), F("-7/5"), "NotFrame"),
    (F("0"), F("1/5"), F("17"), F("-4"), "Frame"),
    (F("4"), F("-1"), F("-7"), F("3"), "NotFrame"),
    (F("4"), F("-1"), F("-13"), F("5"), "Frame"),
    (F("4"), F("-1"), F("-16"), F("6"), "NotFrame"),
    (F("4"), F("-1"), F("-26"), F("9"), "Frame"),
    (F("4"), F("-1"), F("-32"), F("11"), "Frame"),
    (F("4"), F("-1"), F("-29"), F("10"), "Frame"),
    (F("4"), F("-1"), F("-35"), F("12"), "Frame"),
    (F("-1"), F("1/2"), F("17"), F("-4"), "Frame"),
    (F("-1"), F("1/2"), F("28"), F("-15/2"), "Frame"),
    (F("-1"), F("1/2"), F("39"), F("-11"), "Frame"),
    (F("2"), F("-2/5"), F("-3"), F("2"), "NotFrame"),
    (F("2"), F("-2/5"), F("-8"), F("18/5"), "Frame"),
    (F("2"), F("-2/5"), F("-13"), F("26/5"), "Frame"),
    (F("2"), F("-2/5"), F("-9"), F("4"), "Frame"),
    (F("2"), F("-2/5"), F("-14"), F("28/5"), "Frame"),
    (F("2"), F("-2/5"), F("-19"), F("36/5"), "Frame"),
    (F("2"), F("-2/5"), F("-3"), F("12/5"), "NotFrame"),
    (F("-1"), F("1/2"), F("10"), F("-7/4"), "Frame"),
    (F("-1"), F("1/2"), F("-1"), F("7/4"), "Frame"),
    (F("-1"), F("1/2"), F("8"), F("-9/8"), "Frame"),
    (F("-1"), F("1/2"), F("1"), F("9/8"), "Frame"),
    (F("3"), F("-3/4"), F("4"), F("-1/2"), "Frame"),
    (F("3"), F("-3/4"), F("6"), F("-1/2"), "Frame"),
    (F("3"), F("-3/4"), F("8"), F("-1/2"), "Frame"),
    (F("3"), F("-3/4"), F("1"), F("1/2"), "Frame"),
    (F("3"), F("-3/4"), F("3"), F("1/2"), "Frame"),
    (F("3"), F("-3/4"), F("5"), F("1/2"), "Frame"),
    (F("3"), F("-3/4"), F("-3"), F("3"), "Frame"),
    (F("-3"), F("5/4"), F("10"), F("-5/2"), "Frame"),
    (F("-3"), F("5/4"), F("11"), F("-5/2"), "Frame"),
    (F("-3"), F("5/4"), F("9"), F("-2"), "Frame"),
    (F("-3"), F("5/4"), F("10"), F("-2"), "Frame"),
    (F("-3"), F("5/4"), F("11"), F("-2"), "Frame"),
    (F("-3"), F("5/4"), F("7"), F("-3/2"), "Frame"),
    (F("-3"), F("5/4"), F("8"), F("-3/2"), "Frame"),
    (F("-4"), F("3/2"), F("5"), F("-1/2"), "Frame"),
]

SQRT2_TRIPLES = [
    (F("0"), F("2/5"), F("9"), F("-16/5"), "Frame"),
    (F("0"), F("2/5"), F("13"), F("-6"), "Frame"),
    (F("0"), F("2/5"), F("17"), F("-44/5"), "Frame"),
    (F("0"), F("2/5"), F("22"), F("-62/5"), "Frame"),
    (F("0"), F("5/12"), F("7"), F("-5/2"), "Frame"),
    (F("0"), F("5/12"), F("10"), F("-55/12"), "Frame"),
    (F("0"), F("5/12"), F("13"), F("-20/3"), "Frame"),
    (F("0"), F("5/12"), F("17"), F("-115/12"), "Frame"),
    (F("0"), F("5/12"), F("13"), F("-55/12"), "NotFrame"),
    (F("0"), F("5/12"), F("20"), F("-115/12"), "Frame"),
    (F("0"), F("5/12"), F("26"), F("-55/4"), "Frame"),
    (F("0"), F("3/7"), F("5"), F("-12/7"), "Frame"),
    (F("0"), F("3/7"), F("8"), F("-27/7"), "Frame"),
    (F("0"), F("3/7"), F("11"), F("-6"), "Frame"),
    (F("0"), F("3/7"), F("11"), F("-27/7"), "NotFrame"),
    (F("0"), F("3/7"), F("17"), F("-57/7"), "Frame"),
    (F("0"), F("3/7"), F("23"), F("-87/7"), "Frame"),
    (F("0"), F("3/7"), F("28"), F("-111/7"), "Frame"),
    (F("1"), F("-1/4"), F("6"), F("-5/2"), "Frame"),
    (F("1"), F("-1/4"), F("8"), F("-5/2"), "Frame"),
    (F("1"), F("-1/4"), F("10"), F("-5/2"), "Frame"),
    (F("1"), F("-1/4"), F("4"), F("-1"), "Frame"),
    (F("1"), F("-1/4"), F("6"), F("-1"), "Frame"),
    (F("1"), F("-1/4"), F("8"), F("-1"), "Frame"),
    (F("1"), F("-1/4"), F("1"), F("1"), "Frame"),
    (F("0"), F("1/2"), F("7"), F("-5/2"), "NotFrame"),
    (F("0"), F("1/2"), F("9"), F("-5/2"), "Frame"),
    (F("0"), F("1/2"), F("10"), F("-5/2"), "Frame"),
    (F("0"), F("1/2"), F("5"), F("-1"), "Frame"),
    (F("0"), F("1/2"), F("7"), F("-1"), "Frame"),
    (F("0"), F("1/2"), F("8"), F("-1"), "Frame"),
    (F("0"), F("1/2"), F("2"), F("1"), "Frame"),
    (F("2"), F("-3/4"), F("7"), F("-3"), "Frame"),
    (F("2"), F("-3/4"), F("8"), F("-3"), "Frame"),
    (F("2"), F("-3/4"), F("9"), F("-3"), "Frame"),
    (F("2"), F("-3/4"), F("10"), F("-3"), "Frame"),
    (F("2"), F("-3/4"), F("11"), F("-3"), "Frame"),
    (F("2"), F("-3/4"), F("6"), F("-5/2"), "Frame"),
    (F("2"), F("-3/4"), F("7"), F("-5/2"), "Frame"),
    (F("2"), F("-1"), F("7"), F("-5/2"), "Frame"),
    (F("2"), F("-1"), F("10"), F("-5/2"), "Frame"),
    (F("2"), F("-1"), F("0"), F("5/2"), "Frame"),
    (F("2"), F("-1"), F("3"), F("5/2"), "Frame"),
    (F("2"), F("-1"), F("4"), F("-1/3"), "Frame"),
    (F("2"), F("-1"), F("7"), F("-1/3"), "Frame"),
    (F("2"), F("-1"), F("3"), F("1/3"), "Frame"),
    (F("-1"), F("5/4"), F("7"), F("-3"), "Frame"),
    (F("-1"), F("5/4"), F("9"), F("-3"), "Frame"),
    (F("-1"), F("5/4"), F("10"), F("-3"), "Frame"),
    (F("-1"), F("5/4"), F("6"), F("-5/2"), "Frame"),
]

SQRT3_TRIPLES = [
    (F("0"), F("2/5"), F("7"), F("-2"), "NotFrame"),
    (F("0"), F("2/5"), F("11"), F("-22/5"), "Frame"),
    (F("0"), F("2/5"), F("14"), F("-6"), "Frame"),
    (F("0"), F("2/5"), F("18"), F("-42/5"), "Frame"),
    (F("0"), F("2/5"), F("21"), F("-10"), "Frame"),
    (F("0"), F("2/5"), F("11"), F("-16/5"), "NotFrame"),
    (F("0"), F("2/5"), F("16"), F("-6"), "Frame"),
    (F("0"), F("5/12"), F("7"), F("-25/12"), "NotFrame"),
    (F("0"), F("5/12"), F("10"), F("-15/4"), "Frame"),
    (F("0"), F("5/12"), F("13"), F("-65/12"), "Frame"),
    (F("0"), F("5/12"), F("17"), F("-95/12"), "Frame"),
    (F("0"), F("5/12"), F("15"), F("-20/3"), "Frame"),
    (F("0"), F("5/12"), F("18"), F("-25/3"), "Frame"),
    (F("0"), F("5/12"), F("21"), F("-10"), "Frame"),
    (F("0"), F("3/7"), F("7"), F("-15/7"), "NotFrame"),
    (F("0"), F("3/7"), F("10"), F("-27/7"), "Frame"),
    (F("0"), F("3/7"), F("13"), F("-39/7"), "Frame"),
    (F("0"), F("3/7"), F("11"), F("-30/7"), "Frame"),
    (F("0"), F("3/7"), F("14"), F("-6"), "Frame"),
    (F("0"), F("3/7"), F("17"), F("-54/7"), "Frame"),
    (F("0"), F("3/7"), F("9"), F("-18/7"), "NotFrame"),
    (F("-2"), F("3/2"), F("19"), F("-9"), "Frame"),
    (F("-2"), F("3/2"), F("32"), F("-33/2"), "Frame"),
    (F("-2"), F("3/2"), F("45"), F("-24"), "Frame"),
    (F("-2"), F("3/2"), F("35"), F("-33/2"), "NotFrame"),
    (F("-2"), F("3/2"), F("61"), F("-63/2"), "Frame"),
    (F("-2"), F("3/2"), F("87"), F("-93/2"), "Frame"),
    (F("3"), F("-4/3"), F("-8"), F("20/3"), "NotFrame"),
    (F("3"), F("-4/3"), F("-29"), F("56/3"), "Frame"),
    (F("3"), F("-4/3"), F("-22"), F("44/3"), "Frame"),
    (F("3"), F("-4/3"), F("-31"), F("20"), "Frame"),
    (F("3"), F("-4/3"), F("-45"), F("28"), "Frame"),
    (F("3"), F("-4/3"), F("-13"), F("32/3"), "NotFrame"),
    (F("3"), F("-4/3"), F("-29"), F("20"), "Frame"),
    (F("1"), F("-1/4"), F("8"), F("-2"), "Frame"),
    (F("1"), F("-1/4"), F("1"), F("2"), "Frame"),
    (F("1"), F("-1/4"), F("9"), F("-21/8"), "Frame"),
    (F("1"), F("-1/4"), F("6"), F("-7/8"), "Frame"),
    (F("1"), F("-1/4"), F("3"), F("7/8"), "Frame"),
    (F("1"), F("-1/4"), F("0"), F("21/8"), "Frame"),
    (F("0"), F("1/2"), F("8"), F("-3"), "NotFrame"),
    (F("0"), F("1/2"), F("9"), F("-3"), "Frame"),
    (F("0"), F("1/2"), F("10"), F("-3"), "Frame"),
    (F("0"), F("1/2"), F("11"), F("-3"), "NotFrame"),
    (F("0"), F("1/2"), F("7"), F("-5/2"), "Frame"),
    (F("0"), F("1/2"), F("8"), F("-5/2"), "Frame"),
    (F("0"), F("1/2"), F("9"), F("-5/2"), "NotFrame"),
    (F("2"), F("-3/4"), F("8"), F("-5/2"), "Frame"),
    (F("2"), F("-3/4"), F("10"), F("-5/2"), "Frame"),
    (F("2"), F("-3/4"), F("11"), F("-5/2"), "Frame"),
]


def test_irrational_spot_agreement_under_a_minute():
    t0 = time.monotonic()
    pools = [(PI, PI_TRIPLES), (SQ2, SQRT2_TRIPLES), (SQ3, SQRT3_TRIPLES)]
    for ctx, rows in pools:
        assert len(rows) == 50
        for x0, x1, y0, y1, want in rows:
            a, c = ctx.num(x0, x1), ctx.num(y0, y1)
            nt = normalize(a, ONE, c)
            assert region_tag(nt) is RegionTag.XII, (x0, x1, y0, y1)
            closed = classify_triple(nt).verdict
            rep = compute_S(nt)
            dyn = (
                "Frame"
                if rep.S.is_empty or measure_identity(nt, rep.S)
                else "NotFrame"
            )
            assert closed == dyn == want, (x0, x1, y0, y1)
    assert time.monotonic() - t0 < 60.0


# --- 7. property-suite coverage --------------------------------------------

def test_property_suites_present_and_sized():
    import test_properties

    suites = test_properties.PROPERTY_SUITES
    assert len(suites) == 7
    for fn in suites:
        settings = fn._hypothesis_internal_use_settings
        assert settings.max_examples >= 1000, fn.__name__


# --- 8. numeric diagnostic trends -------------------------------------------

def test_numeric_bound_trends_under_30s():
    t0 = time.monotonic()
    frame = nt_of("13/17", "77/17")
    lo8, _ = numeric_frame_bounds(frame, half_width=8)
    lo32, _ = numeric_frame_bounds(frame, half_width=32)
    assert lo32 >= 0.5 * lo8 > 0.0

    nonframe = nt_of("13/17", "75/17")
    no8, _ = numeric_frame_bounds(nonframe, half_width=8)
    no32, _ = numeric_frame_bounds(nonframe, half_width=32)
    assert no32 <= 0.5 * no8
    assert time.monotonic() - t0 < 30.0


# --- 9. ergodic diagnostic ---------------------------------------------------

def test_birkhoff_averages_under_10s():
    t0 = time.monotonic()
    # S empty: every orbit falls into the forward absorber, where the bump
    # plateau sits, so the time average approaches full occupancy.
    avg = birkhoff_average(nt_of("7/9", "7/2"), rat(0), 10**5)
    assert 0.95 <= avg <= 1.0
    # a point of S never meets the bump support at all
    assert birkhoff_average(nt_of("13/17", "77/17"), rat(F(2, 17)), 10**5) == 0.0
    assert time.monotonic() - t0 < 10.0


# --- 10. raster sweep sanity -------------------------------------------------

def test_region_plot_sane_and_deterministic(tmp_path):
    t0 = time.monotonic()
    outs = []
    for tag in ("one", "two"):
        ppm = tmp_path / f"{tag}.ppm"
        csv = tmp_path / f"{tag}.csv"
        code = cli_main([
            "region-plot", "--qmax", "10", "--cmin", "0", "--cmax", "6",
            "--out", str(ppm), "--csv", str(csv),
        ])
        assert code == 0
        outs.append((ppm.read_bytes(), csv.read_bytes()))
    assert outs[0] == outs[1]

    lines = outs[0][1].decode("ascii").splitlines()
    assert lines[0] == "a,c,region,verdict"
    seen = 0
    for line in lines[1:]:
        a_s, c_s, _region, verdict = line.split(",")
        af, cf = F(a_s), F(c_s)
        if af > cf:
            assert verdict == "NotFrame", line
        elif af < cf <= 1:
            assert verdict == "Frame", line
        seen += 1
    assert seen == 32 * 47
    assert time.monotonic() - t0 < 120.0

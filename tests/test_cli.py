"""CLI: number grammar, subcommands, exit codes, and raster determinism."""

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborbox import RegionTag, compute_S, normalize, rat
from gaborbox.cli import PALETTE, _sweep_axes, _sweep_rows, main, parse_context, parse_number
from gaborbox.errors import (
    ContextMismatch,
    NumberSyntaxError,
    OracleInconsistency,
    UnsupportedRange,
)
from gaborbox.exactnum import RATIONAL, pi_context, surd_context

PI = pi_context()
SQ3 = surd_context(3)


# -- number grammar ---------------------------------------------------------------

def test_parse_rationals():
    assert parse_number("13/17", RATIONAL) == rat(F(13, 17))
    assert parse_number("-3/4", RATIONAL) == rat(F(-3, 4))
    assert parse_number(" 1 + 1/2 ", RATIONAL) == rat(F(3, 2))
    assert parse_number("3*5/4", RATIONAL) == rat(F(15, 4))


def test_parse_pi_forms():
    assert parse_number("pi/4", PI) == PI.num(0, F(1, 4))
    assert parse_number("23-11*pi/2", PI) == PI.num(23, F(-11, 2))
    assert parse_number("2", PI) == PI.num(2, 0)


def test_parse_surd_forms():
    assert parse_number("15/2*sqrt(3)", SQ3) == SQ3.num(0, F(15, 2))
    # sqrt(8) reduces to 2*sqrt(2): same context object as sqrt:2
    assert parse_number("sqrt(8)", surd_context(2)) == surd_context(2).num(0, 2)
    # perfect squares collapse to rationals and parse anywhere
    assert parse_number("sqrt(49)", RATIONAL) == rat(7)
    assert parse_number("sqrt(0)", RATIONAL) == rat(0)


_coef = st.one_of(st.just(0), st.integers(-9, 9),
                 st.fractions(min_value=-100, max_value=100, max_denominator=50))


@given(ctx=st.sampled_from([RATIONAL, surd_context(2), SQ3, surd_context(8), PI]),
       x0=_coef, x1=_coef)
def test_render_parses_back_to_the_same_value(ctx, x0, x1):
    x = ctx.num(x0, 0 if ctx is RATIONAL else x1)
    assert parse_number(x.render(), ctx) == x


def test_syntax_errors_carry_columns():
    with pytest.raises(NumberSyntaxError) as e:
        parse_number("13@17", RATIONAL)
    assert e.value.column == 3
    assert "column 3" in str(e.value)
    with pytest.raises(NumberSyntaxError):
        parse_number("", RATIONAL)
    with pytest.raises(NumberSyntaxError):
        parse_number("1/0", RATIONAL)
    with pytest.raises(NumberSyntaxError):
        parse_number("1/pi", PI)
    with pytest.raises(NumberSyntaxError):
        parse_number("pi+sqrt(2)", PI)
    with pytest.raises(NumberSyntaxError):
        parse_number("3 4", RATIONAL)
    with pytest.raises(NumberSyntaxError, match=r"^expected a number, 'pi' or 'sqrt\(\.\.\.\)'") as e:
        parse_number("1+*2", RATIONAL)  # an operator where an atom belongs
    assert e.value.column == 3


def test_context_mismatch_messages_point_to_flag():
    with pytest.raises(ContextMismatch) as e:
        parse_number("pi/4", RATIONAL)
    assert "--context pi" in str(e.value)
    with pytest.raises(ContextMismatch) as e:
        parse_number("sqrt(12)", RATIONAL)  # reduces to 2*sqrt(3)
    assert "--context sqrt:3" in str(e.value)
    with pytest.raises(ContextMismatch, match=r"\(current: sqrt:3\)$"):
        parse_number("sqrt(2)", SQ3)
    with pytest.raises(ContextMismatch, match=r"--context sqrt:2 \(current: pi\)$"):
        parse_number("sqrt(2)", PI)


def test_parse_context():
    assert parse_context("rational") is RATIONAL
    assert parse_context("pi") == PI
    assert parse_context("sqrt:3") == SQ3
    assert parse_context("sqrt:8") == surd_context(2)  # square part stripped
    with pytest.raises(UnsupportedRange):
        parse_context("sqrt:1")
    for square in ("sqrt:4", "sqrt:9", "sqrt:1000000"):
        with pytest.raises(UnsupportedRange, match=f"^{square} is rational"):
            parse_context(square)
    with pytest.raises(UnsupportedRange):
        parse_context("golden")


# -- subcommand exit codes and payloads ------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "--a", "13/17", "--b", "1", "--c", "77/17")
    assert code == 0
    assert out.startswith("Frame (region XIII)")
    code, out, _ = run(capsys, "classify", "--a", "13/17", "--b", "1", "--c", "75/17")
    assert code == 3
    assert out.startswith("NotFrame")


def test_classify_error_exit(capsys):
    code, _, err = run(capsys, "classify", "--a", "13q17", "--b", "1", "--c", "3")
    assert code == 1
    assert err.startswith("error:")
    # pi literal without the matching context
    code, _, err = run(capsys, "classify", "--a", "pi/4", "--b", "1", "--c", "3")
    assert code == 1
    assert "--context pi" in err


def test_negative_values_reach_the_number_parser(capsys):
    # argparse alone reads "-1/2" as an option and exits 2
    code, _, err = run(capsys, "classify", "--a", "-1/2", "--b", "1", "--c", "3")
    assert code == 1
    assert "a must be positive" in err
    orbit = ["orbit", "--a", "13/17", "--b", "1", "--c", "77/17", "--steps", "2"]
    code, out, _ = run(capsys, *orbit, "--t", "-1/2")
    assert code == 0
    assert out.splitlines()[0] == "9/34"  # -1/2 mod 13/17
    assert run(capsys, *orbit, "--t=-1/2") == (0, out, "")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["classify", "--a", "1", "--b", "1"],
    ["classify", "--a", "1", "--b", "1", "--c", "2", "--bogus"],
    ["selftest", "--qmax", "x"], ["orbit", "--map", "sideways"],
])
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "usage: gaborbox" in err


def test_classify_json_payload(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "13/17", "--b", "1", "--c", "77/17", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Frame"
    assert payload["region"] == "XIII"
    assert payload["witness"] is None
    nt = normalize(rat(F(13, 17)), rat(1), rat(F(77, 17)))
    report = compute_S(nt)
    assert payload["S"] == [[lo.render(), hi.render()] for lo, hi in report.S.intervals]
    assert payload["Ya"] == report.Ya.render()
    assert payload["marks"]["kind"] == "cyclic"
    assert payload["marks"]["order"] == 3
    assert "timings" in payload


def test_classify_json_witness_for_nonframe(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "13/17", "--b", "1", "--c", "75/17", "--json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["witness"]["kind"] == "rational-params"
    assert payload["witness"]["case"] == 8
    assert payload["witness"]["N"] == 3


def test_classify_past_the_pi_cap_is_a_one_line_error(capsys):
    from test_lattice import pi_cap_offset

    x = pi_cap_offset()
    code, out, err = run(capsys, "classify", "--json", "--context", "pi", "--a", "pi/4",
                         "--b", "1", "--c", f"pi-{x.numerator}/{x.denominator}")
    assert (code, out) == (1, "")
    assert err == "error: enclosure for pi already at 4096 bits (cap 4096)\n"


def test_classify_json_reports_internal_errors(capsys, monkeypatch):
    # only a region without a construction prints "S": null; a bug signal exits 1
    from gaborbox import cli

    def broken(nt):
        raise OracleInconsistency("invariant set touches the forward absorber")

    monkeypatch.setattr(cli, "compute_S", broken)
    code, out, err = run(capsys, "classify", "--json", "--a", "13/17", "--b", "1",
                         "--c", "77/17")
    assert (code, out) == (1, "")
    assert err == "error: invariant set touches the forward absorber\n"


def test_witness_without_a_json_form_exits_1(capsys, monkeypatch):
    # a witness no serializer knows is a bug signal, not a payload
    from gaborbox import cli
    from gaborbox.classifier import FrameDecision

    with pytest.raises(OracleInconsistency, match="no JSON form for witness"):
        cli._witness_json(object())
    monkeypatch.setattr(cli, "classify_triple",
                        lambda nt: FrameDecision("NotFrame", RegionTag.I, "odd"))
    code, out, err = run(capsys, "classify", "--a", "2", "--b", "1", "--c", "1")
    assert (code, out) == (1, "NotFrame (region I)\n")
    assert err == "error: no JSON form for witness 'odd'\n"


def test_classify_pi_context(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "pi/4", "--b", "1", "--c", "23-11*pi/2",
        "--context", "pi", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Frame"
    assert payload["region"] == "XII"


def test_invariant_set_json(capsys):
    code, out, _ = run(
        capsys, "invariant-set", "--a", "13/17", "--b", "1", "--c", "77/17", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "XIII"
    assert payload["Ya"] == "3/17"
    assert payload["theta"] == "1/17"
    assert payload["marks"]["generator"] == "1/17"
    extras = payload["rational_extras"]
    assert (extras["N1"], extras["N2"]) == (0, 2)
    assert extras["delta"] == "2/17"
    assert extras["delta_prime"] == "0"
    assert payload["chain"], "propagation chain must be reported"
    for step in payload["chain"]:
        assert set(step) == {"index", "status", "hole"}


def test_invariant_set_text_empty(capsys):
    code, out, _ = run(capsys, "invariant-set", "--a", "7/9", "--b", "1", "--c", "7/2")
    assert code == 0
    assert "S is empty" in out


def test_invariant_set_text_names_cyclic_marks_and_rational_extras(capsys):
    code, out, _ = run(capsys, "invariant-set", "--a", "13/17", "--b", "1", "--c", "77/17")
    assert code == 0
    assert out.splitlines()[:6] == [
        "region XIII",
        "S = [2/17, 3/17) [9/17, 10/17) [12/17, 13/17)  (mod 13/17)",
        "measure Ya = 3/17",
        "theta = 1/17",
        "marks: cyclic group, generator 1/17, order 3",
        "gaps: N1=0 N2=2 delta=2/17 delta'=0 h=1/17",
    ]


def test_invariant_set_text_lists_finite_marks(capsys):
    # the pi fixture (pi/4, 1, 23 - 11/2*pi): S nonempty on an irrational
    # ratio, so its marks are a finite set of points, not a cyclic group
    code, out, _ = run(capsys, "invariant-set", "--context", "pi",
                       "--a", "1/4*pi", "--b", "1", "--c", "23-11/2*pi")
    assert code == 0
    assert "region XII" in out
    assert "marks: {4-5/4*pi, 11-7/2*pi, 15-19/4*pi}" in out.splitlines()


def test_sampling_exit_codes(capsys):
    code, out, _ = run(capsys, "sampling", "--a", "3/4", "--b", "1", "--c", "3")
    assert code == 0
    assert "stable" in out and "DegenerateInteger" in out
    code, out, _ = run(capsys, "sampling", "--a", "5/4", "--b", "1", "--c", "4")
    assert code == 3
    code, out, _ = run(
        capsys, "sampling", "--a", "13/17", "--b", "1", "--c", "75/17", "--json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["route"] == "ViaGaborEquivalence"
    assert payload["underlying"]["verdict"] == "NotFrame"


def test_orbit_forward(capsys):
    code, out, _ = run(
        capsys, "orbit", "--a", "13/17", "--b", "1", "--c", "77/17",
        "--t", "0", "--steps", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["points"] == ["0", "7/17", "7/17"]


def test_orbit_backward(capsys):
    code, out, _ = run(
        capsys, "orbit", "--a", "13/17", "--b", "1", "--c", "77/17",
        "--t", "0", "--steps", "1", "--map", "backward",
    )
    assert code == 0
    assert out.splitlines() == ["0", "10/17"]


def test_orbit_needs_map_region(capsys):
    code, _, err = run(
        capsys, "orbit", "--a", "4", "--b", "1", "--c", "3", "--t", "0"
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int-string limit")
def test_oversized_integer_literal_is_a_syntax_error(capsys):
    code, _, err = run(capsys, "classify", "--a", "1/2", "--b", "1", "--c", "2*" + "9" * 5000)
    assert code == 1
    assert err.startswith("error:")
    assert "column 3" in err


@pytest.mark.parametrize("steps", ["-3", "100001"])
def test_orbit_rejects_steps_out_of_range(capsys, steps):
    code, _, err = run(
        capsys, "orbit", "--a", "13/17", "--b", "1", "--c", "77/17",
        "--t", "0", "--steps", steps,
    )
    assert code == 1
    assert "--steps" in err


_HUGE = "9" * 54


@pytest.mark.parametrize("argv", [
    ["--context", f"sqrt:{_HUGE}", "--a", "1/2", "--b", "1", "--c", "3"],
    ["--a", f"sqrt({_HUGE})/4", "--b", "1", "--c", "3"],
])
def test_oversized_radicand_is_rejected_before_factoring(capsys, argv):
    t0 = time.monotonic()
    code, _, err = run(capsys, "classify", *argv)
    assert code == 1
    assert "10**12" in err
    assert time.monotonic() - t0 < 1.0


def test_a_surd_command_factors_its_radicand_once_per_input(capsys, monkeypatch):
    # once for the context and once for the literal: the context checks
    # itself, and the CLI does not check it again
    from gaborbox import cli, exactnum

    calls = []
    real = exactnum.square_free_decompose

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(exactnum, "square_free_decompose", counted)
    monkeypatch.setattr(cli, "square_free_decompose", counted)
    code, _, _ = run(capsys, "classify", "--context", "sqrt:999999999989",
                     "--a", "sqrt(999999999989)/2000000", "--b", "1", "--c", "7/2")
    assert code in (0, 3)
    assert calls == [999999999989, 999999999989]


def test_radicand_bound_is_inclusive():
    bound = 10**12  # = 2**12 * 5**12, a perfect square
    assert parse_number(f"sqrt({bound})", RATIONAL) == rat(10**6)
    with pytest.raises(UnsupportedRange):
        parse_number(f"sqrt({bound + 1})", RATIONAL)
    with pytest.raises(UnsupportedRange):
        parse_context(f"sqrt:{bound + 1}")


@pytest.mark.parametrize("qmax", ["0", "65", "100000"])
def test_selftest_rejects_qmax_out_of_range(capsys, qmax):
    code, _, err = run(capsys, "selftest", "--qmax", qmax)
    assert code == 1
    assert "--qmax" in err


def test_region_plot_rejects_oversized_sweep(capsys, tmp_path):
    out = tmp_path / "big.ppm"
    t0 = time.monotonic()
    code, _, err = run(
        capsys, "region-plot", "--qmax", "100000", "--cmin", "0", "--cmax", "1000",
        "--out", str(out),
    )
    assert code == 1
    assert "cells" in err
    assert not out.exists()
    assert time.monotonic() - t0 < 1.0


def test_region_plot_bounds_the_row_walk(capsys):
    # few fractions fall in the a-window, so the cell bound never trips, but
    # the walk would visit every q <= 10**9
    t0 = time.monotonic()
    code, _, err = run(
        capsys, "region-plot", "--qmax", "1000000000", "--amin", "1/3",
        "--amax", "1000000001/3000000000", "--cmax", "2", "--out", os.devnull,
    )
    assert code == 1
    assert err.startswith("error:") and "--qmax" in err
    assert time.monotonic() - t0 < 1.0


def test_region_plot_cell_bound_is_inclusive():
    # rows a = 1..1000 (q = 1), columns c = 1..ncols
    avals, cvals = _sweep_axes(1, F(0), F(1000), F(0), F(1001), F(1))
    assert len(avals) * len(cvals) == 10**6
    with pytest.raises(UnsupportedRange):
        _sweep_axes(1, F(0), F(1000), F(0), F(1002), F(1))


_NUMBERS = [
    "1", "3", "1/2", "13/17", "77/17", "75/17", "6/7", "23/7", "7/2", "pi/4",
    "23-11*pi/2", "7/10*sqrt(2)", "sqrt(2)/2", "1/2*sqrt(3)", "15-13*sqrt(3)/2",
    "sqrt(4)", "sqrt(0)", "0", "-1/2", "1/0", "", "abc", "2**3", "sqrt(x)",
    "pi*pi", "1/pi", f"sqrt({_HUGE})", "9" * 5000, "-1", "-pi/4", "-sqrt(2)/2", "--json",
]
_CONTEXTS = ["rational", "pi", "sqrt:2", "sqrt:3", "sqrt:8", "sqrt:1", "sqrt:4", "sqrt:",
             f"sqrt:{_HUGE}", "bogus", "sqrt:0", "sqrt:1000000000001", "golden",
             "sqrt:" + "9" * 5000]
# a plot path that cannot be written: a directory, or a file in a missing one
_UNWRITABLE = [str(Path(__file__).parent), str(Path(__file__).parent / "no-such-dir" / "x")]
_VALID_TRIPLES = [
    ("13/17", "1", "77/17", "rational"), ("13/17", "1", "75/17", "rational"),
    ("6/7", "1", "23/7", "rational"), ("3/4", "1", "3", "rational"),
    ("pi/4", "1", "23-11*pi/2", "pi"), ("1/2*sqrt(3)", "1", "15-13*sqrt(3)/2", "sqrt:3"),
]
_number = st.sampled_from(_NUMBERS)


def _flags(names, values, joined):
    """--name=value, or --name value (values may start with '-')."""
    if joined:
        return [f"--{n}={v}" for n, v in zip(names, values)]
    return [x for n, v in zip(names, values) for x in (f"--{n}", str(v))]


_triple_flags = st.tuples(
    st.one_of(
        st.sampled_from(_VALID_TRIPLES),
        st.tuples(_number, _number, _number, st.sampled_from(_CONTEXTS)),
    ),
    st.booleans(),
).map(lambda t: _flags(("a", "b", "c", "context"), t[0], t[1]))
_json = st.sampled_from([[], ["--json"]])
_argvs = st.one_of(
    st.tuples(st.sampled_from(["classify", "invariant-set", "sampling"]),
              _triple_flags, _json).map(lambda t: [t[0], *t[1], *t[2]]),
    st.tuples(_triple_flags, _number,
              st.one_of(st.integers(-3, 20), st.sampled_from([100_001, 10**9])),
              st.sampled_from(["forward", "backward"]), st.booleans()).map(
        lambda t: ["orbit", *t[0], *_flags(("t", "steps", "map"), t[1:4], t[4])]),
    # small sweeps, or huge ones that the cell bound must stop at once, into
    # the null device or a path that cannot be written
    st.tuples(
        st.one_of(
            st.tuples(st.integers(-1, 3), st.sampled_from(["0", "2", "3", "nope"])),
            st.tuples(st.sampled_from([10**5, 10**9]), st.just("1000")),
        ),
        st.sampled_from([os.devnull, *_UNWRITABLE]),
    ).map(lambda t: ["region-plot", f"--qmax={t[0][0]}", "--cmin=0", f"--cmax={t[0][1]}",
                     "--step-c=1/2", f"--out={t[1]}"]),
    # axes outside the number grammar, or not rational
    st.tuples(st.sampled_from(["amin", "amax", "cmin", "cmax", "step-c"]),
              st.sampled_from(["0.5", "1e1", "pi", "sqrt(2)", "1/0"])).map(
        lambda t: ["region-plot", "--qmax=2", f"--{t[0]}={t[1]}", f"--out={os.devnull}"]),
    st.sampled_from([-1, 0, 1, 2, 65, 10**5]).map(lambda q: ["selftest", f"--qmax={q}"]),
    # command lines that do not parse
    st.sampled_from([[], ["bogus"], ["classify"], ["classify", "--a"], ["--json"],
                     ["classify", "--a", "1", "--b", "1", "--c", "2", "--bogus"],
                     ["orbit", "--a", "13/17", "--b", "1", "--c", "77/17", "--t", "0",
                      "--steps", "x"], ["region-plot", "--qmax", "2"]]),
)


@given(argv=_argvs)
@example(argv=["classify", "--a=1/2", "--b=1", "--c=3", "--context=sqrt:4"])
@example(argv=["classify", "--a=1/2", "--b=1", "--c=3", "--context=sqrt:" + "9" * 5000])
@example(argv=["region-plot", "--qmax=2", "--amin=0.5", f"--out={os.devnull}"])
@example(argv=["region-plot", "--qmax=2", "--cmax=1e1", f"--out={os.devnull}"])
@example(argv=["region-plot", "--qmax=2", "--step-c=pi", f"--out={os.devnull}"])
@example(argv=["region-plot", "--qmax=2", "--amin=1/0", f"--out={os.devnull}"])
@example(argv=["region-plot", "--qmax=2", "--cmax=2", f"--out={_UNWRITABLE[0]}"])
@example(argv=["region-plot", "--qmax=2", "--cmax=2", f"--out={_UNWRITABLE[1]}"])
@settings(max_examples=200, deadline=None)
def test_cli_exit_codes_are_0_1_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error: ") or "FAIL" in err.getvalue()


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_json_payloads_match_golden(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    payload = json.loads(out)
    payload.pop("timings", None)
    assert code == case["exit_code"]
    # compare the serialized text so that key order counts too
    assert json.dumps(payload, indent=2) == json.dumps(case["payload"], indent=2)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--qmax", "4")
    assert code == 0
    assert "checks agree" in out
    assert "region XIII" in out  # the per-region tally


def test_selftest_reports_failures(capsys, monkeypatch):
    from gaborbox import cli, oracle
    from gaborbox.classifier import FrameDecision

    monkeypatch.setattr(oracle, "triple_pipeline_check",
                        lambda nt: f"verdict clash on c={nt.c.render()}")
    code, out, err = run(capsys, "selftest", "--qmax", "2")
    assert code == 1
    assert out.startswith("swept 13 on-grid triples (q <= 2")
    # a = 1/2 and c = k/2 for k = 3..15, then the six fixed verdicts agree
    assert err.splitlines() == [f"FAIL verdict clash on c={F(k, 2)}" for k in range(3, 16)] + [
        "13 failure(s) out of 19 checks"]
    monkeypatch.setattr(oracle, "triple_pipeline_check", lambda nt: None)
    monkeypatch.setattr(cli, "classify", lambda a, b, c: FrameDecision("NotFrame", RegionTag.I))
    code, _, err = run(capsys, "selftest", "--qmax", "2")
    assert code == 1
    assert err.splitlines() == [
        "FAIL fixture (13/17, 1, 77/17): expected Frame, got NotFrame",
        "FAIL fixture (13/17, 1, 73/17): expected Frame, got NotFrame",
        "FAIL fixture (6/7, 1, 23/7): expected Frame, got NotFrame",
        "FAIL fixture (pi/4, 1, 23-11*pi/2): expected Frame, got NotFrame",
        "4 failure(s) out of 19 checks",
    ]


# -- region plot -------------------------------------------------------------------

def test_palette_covers_all_cells():
    regions = [
        "I", "II", "III", "IV", "V", "VI", "VII",
        "VIII", "IX", "X", "XI", "XII", "XIII", "XIV",
    ]
    for r in regions:
        bright = PALETTE[(r, "Frame")]
        dim = PALETTE[(r, "NotFrame")]
        assert all(0 <= v <= 255 for v in bright)
        assert dim == tuple(v // 3 for v in bright)


def test_region_plot_outputs_are_deterministic(capsys, tmp_path):
    outs = []
    for tag in ("one", "two"):
        ppm = tmp_path / f"{tag}.ppm"
        csv = tmp_path / f"{tag}.csv"
        code, out, _ = run(
            capsys, "region-plot", "--qmax", "3", "--amax", "1",
            "--cmin", "0", "--cmax", "3", "--step-c", "1/2",
            "--out", str(ppm), "--csv", str(csv),
        )
        assert code == 0
        outs.append((ppm.read_bytes(), csv.read_text()))
    assert outs[0] == outs[1]
    blob, text = outs[0]
    # 4 lattice steps (1/3, 1/2, 2/3, 1) x 5 window lengths (1/2 .. 5/2)
    assert blob.startswith(b"P6\n5 4\n255\n")
    assert len(blob) == len(b"P6\n5 4\n255\n") + 4 * 5 * 3
    lines = text.strip().splitlines()
    assert lines[0] == "a,c,region,verdict"
    assert len(lines) == 1 + 4 * 5
    assert lines[1] == "1/3,1/2,IV,Frame"


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_region_plot_reports_unwritable_paths(capsys, monkeypatch, tmp_path, flag, where):
    import gaborbox.cli

    calls = []
    real = gaborbox.cli.classify
    monkeypatch.setattr(gaborbox.cli, "classify", lambda *abc: calls.append(abc) or real(*abc))
    bad = str(tmp_path / "no-such-dir" / "cells" if where == "missing-directory" else tmp_path)
    paths = {"--out": str(tmp_path / "cells.ppm"), "--csv": str(tmp_path / "cells.csv"), flag: bad}
    kept = Path(paths["--csv" if flag == "--out" else "--out"])
    kept.write_bytes(b"an earlier plot")
    code, out, err = run(capsys, "region-plot", "--qmax", "2", "--cmax", "2",
                         *(x for item in paths.items() for x in item))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {bad!r}: ")
    assert err.count("\n") == 1
    assert calls == []  # the paths are opened before the sweep
    assert kept.read_bytes() == b"an earlier plot"  # and truncated only when written
    # the tap sees the sweep: once both paths are writable, every cell is classified
    paths[flag] = str(tmp_path / "cells.out")
    code, _, _ = run(capsys, "region-plot", "--qmax", "2", "--cmax", "2",
                     *(x for item in paths.items() for x in item))
    avals, cvals = _sweep_axes(2, F(0), F(1), F(0), F(2), F(1, 8))
    assert (code, len(calls)) == (0, len(avals) * len(cvals))


def test_region_plot_rejects_negative_cmin(capsys, monkeypatch, tmp_path):
    # a window length below zero is refused with the axes, before any cell
    # is classified or any output is created
    import gaborbox.cli

    calls = []
    real = gaborbox.cli.classify
    monkeypatch.setattr(gaborbox.cli, "classify", lambda *abc: calls.append(abc) or real(*abc))
    out, csv = tmp_path / "new.ppm", tmp_path / "new.csv"
    code, stdout, err = run(capsys, "region-plot", "--qmax", "3", "--cmin", "-1", "--cmax",
                            "1", "--out", str(out), "--csv", str(csv))
    assert (code, stdout) == (1, "")
    assert err.startswith("error:") and "--cmin" in err
    assert not out.exists() and not csv.exists()
    assert calls == []


def test_region_sweep_workers_match(tmp_path):
    axes = _sweep_axes(3, F(0), F(1), F(0), F(3), F(1, 2))
    assert _sweep_rows(*axes, 1) == _sweep_rows(*axes, 2)


def test_region_sweep_clamps_workers(monkeypatch):
    import concurrent.futures

    pools = []

    class FakePool:  # records the pool size instead of starting processes
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    axes = _sweep_axes(3, F(0), F(1), F(0), F(3), F(1, 2))
    # the clamp is the affinity mask, not the machine's CPU count
    monkeypatch.setattr("os.cpu_count", lambda: 16)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    serial = _sweep_rows(*axes, 1)
    for asked in (-5, 0):
        assert _sweep_rows(*axes, asked) == serial
    assert pools == []
    assert _sweep_rows(*axes, 10**6) == serial
    assert _sweep_rows(*axes, 3) == serial
    assert pools == [4, 3]
    # a one-CPU mask (taskset, a cpuset) runs the sweep serially
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {5})
    assert _sweep_rows(*axes, 2) == serial
    assert pools == [4, 3]
    # without sched_getaffinity the machine's CPU count clamps
    monkeypatch.delattr("os.sched_getaffinity")
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _sweep_rows(*axes, 10**6) == serial
    assert pools == [4, 3, 4]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _sweep_rows(*axes, 8) == serial
    assert pools == [4, 3, 4]


def test_region_plot_rejects_bad_ranges(capsys):
    code, _, err = run(
        capsys, "region-plot", "--qmax", "0", "--out", "/tmp/x.ppm"
    )
    assert code == 1
    assert "qmax" in err
    code, _, err = run(
        capsys, "region-plot", "--qmax", "2", "--amin", "nope", "--out", "/tmp/x.ppm"
    )
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["classify", "--a", "1+"], "unexpected end of input (column 3)"),
    (["classify", "--a", "sqrt 2"], "expected '(' (column 6)"),
    (["classify", "--a", "sqrt(pi)"], "sqrt needs an integer argument (column 6)"),
    (["region-plot", "--qmax", "3", "--amin", "1", "--amax", "1/2"], "need amin < amax"),
    (["region-plot", "--qmax", "3", "--step-c", "0"], "step-c must be positive"),
    (["region-plot", "--qmax", "2", "--amin", "1/5", "--amax", "1/4"],
     "no lattice steps a = p/q fall inside (amin, amax]"),
    (["region-plot", "--qmax", "3", "--cmin", "0", "--cmax", "1/8"],
     "no window lengths fall inside (cmin, cmax)"),
    # NumberContext refuses a radicand; the CLI passes the spec on unchecked
    (["classify", "--context", "sqrt:0", "--a", "1/2"], "sqrt context needs an integer >= 2, got 0"),
    (["classify", "--context", "sqrt:1", "--a", "1/2"], "sqrt context needs an integer >= 2, got 1"),
    (["classify", "--context", "sqrt:4", "--a", "1/2"], "sqrt:4 is rational; use the rational context"),
    (["classify", "--context", "sqrt:1000000000001", "--a", "1/2"],
     "sqrt argument must be at most 10**12, got a 40-bit integer"),
    (["classify", "--context", "golden", "--a", "1/2"],
     "unknown context 'golden'; use rational, pi or sqrt:D"),
    pytest.param(["classify", "--context", "sqrt:" + "9" * 5000, "--a", "1/2"],
                 "sqrt context radicand is too long",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="interpreter has no int-string limit")),
    # the axes read the number grammar: no decimal, exponent or basis
    (["region-plot", "--qmax", "3", "--amin", "0.5"], "unexpected character '.' (column 2)"),
    (["region-plot", "--qmax", "3", "--cmax", "1e1"], "unexpected character 'e' (column 2)"),
    # region-plot has no --context: a non-rational axis names its flag
    (["region-plot", "--qmax", "3", "--step-c", "pi"],
     "--step-c must be a rational number, got 'pi'"),
    (["region-plot", "--qmax", "3", "--amin", "1/0"], "division by zero (column 3)"),
    (["region-plot", "--qmax", "3", "--amax", "sqrt(2)"],
     "--amax must be a rational number, got 'sqrt(2)'"),
])
def test_input_checks_exit_1_with_their_error_line(capsys, tmp_path, argv, message):
    out = tmp_path / "cells.ppm"
    rest = ["--b", "1", "--c", "3"] if argv[0] == "classify" else ["--out", str(out)]
    assert run(capsys, *argv, *rest) == (1, "", f"error: {message}\n")
    assert not out.exists()  # region-plot checks its axes before it opens the output


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_region_plot_reports_a_write_that_fails_after_the_check(capsys):
    # /dev/full opens for writing, so the check passes and the write fails
    assert run(capsys, "region-plot", "--qmax", "3", "--out", "/dev/full") == (
        1, "", "error: cannot write '/dev/full': No space left on device\n")

"""CLI: number grammar, subcommands, exit codes, and raster determinism."""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gaborbox import compute_S, normalize, rat
from gaborbox.cli import main, parse_context, parse_number, region_sweep, PALETTE
from gaborbox.errors import ContextMismatch, NumberSyntaxError, UnsupportedRange
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


def test_context_mismatch_messages_point_to_flag():
    with pytest.raises(ContextMismatch) as e:
        parse_number("pi/4", RATIONAL)
    assert "--context pi" in str(e.value)
    with pytest.raises(ContextMismatch) as e:
        parse_number("sqrt(12)", RATIONAL)  # reduces to 2*sqrt(3)
    assert "--context sqrt:3" in str(e.value)
    with pytest.raises(ContextMismatch):
        parse_number("sqrt(2)", SQ3)


def test_parse_context():
    assert parse_context("rational") is RATIONAL
    assert parse_context("pi") == PI
    assert parse_context("sqrt:3") == SQ3
    assert parse_context("sqrt:8") == surd_context(2)  # square part stripped
    with pytest.raises(UnsupportedRange):
        parse_context("sqrt:1")
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


def test_region_sweep_workers_match(tmp_path):
    serial = region_sweep(3, F(0), F(1), F(0), F(3), F(1, 2), workers=1)
    parallel = region_sweep(3, F(0), F(1), F(0), F(3), F(1, 2), workers=2)
    assert serial == parallel


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
    args = (3, F(0), F(1), F(0), F(3), F(1, 2))
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    serial = region_sweep(*args, workers=1)
    for asked in (-5, 0):
        assert region_sweep(*args, workers=asked) == serial
    assert pools == []
    assert region_sweep(*args, workers=10**6) == serial
    assert region_sweep(*args, workers=3) == serial
    assert pools == [4, 3]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert region_sweep(*args, workers=8) == serial
    assert pools == [4, 3]


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

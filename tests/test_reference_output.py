"""Differential tests: the region-plot writers, which format each axis value
and each pixel once, against the per-cell writers they replaced
(`reference_output.py`), byte for byte; and the region tags that the
writers, the decision tables and every rendered region read, which render
their value and hash by identity."""

import io
import pickle
from fractions import Fraction as F

import pytest

import reference_output as ref
from gaborbox import RegionTag, classify, rat
from gaborbox.cli import PALETTE, _sweep_axes, _sweep_rows, _write_csv, _write_ppm, main
from gaborbox.exactnum import RATIONAL, pi_context, surd_context

# region-plot --qmax 10 --cmin 0 --cmax 8 --step-c 1/8: 32 x 63 cells
AXES = _sweep_axes(10, F(0), F(1), F(0), F(8), F(1, 8))


@pytest.fixture(scope="module")
def sweep():
    avals, cvals = AXES
    return avals, cvals, _sweep_rows(avals, cvals, 1)


def _written(write, table, text):
    fh = io.StringIO(newline="") if text else io.BytesIO()
    write(fh, *table)
    return fh.getvalue()


def test_sweep_reaches_every_rational_region_and_both_verdicts(sweep):
    cells = {cell for row in sweep[2] for cell in row}
    # XII needs an irrational a/b, and every a of the sweep is rational
    assert {region for region, _ in cells} == {str(t) for t in RegionTag} - {"XII"}
    assert {verdict for _, verdict in cells} == {"Frame", "NotFrame"}


@pytest.mark.parametrize("write, old, text", [(_write_ppm, ref._write_ppm, False),
                                              (_write_csv, ref._write_csv, True)],
                         ids=["ppm", "csv"])
def test_writers_match_the_per_cell_writers(sweep, write, old, text):
    assert _written(write, sweep, text) == _written(old, sweep, text)
    # every palette entry, XII's both verdicts included, in one table of
    # three rows, and a table with no cells
    cells = sorted(PALETTE)
    avals, cvals = [F(1, 3), F(1, 2), F(1)], [F(k, 7) for k in range(1, 11)]
    rows = [cells[:10], cells[10:20], cells[20:] + cells[:2]]
    for table in ((avals, cvals, rows), ([], cvals, [])):
        assert _written(write, table, text) == _written(old, table, text)


def test_region_plot_files_match_the_per_cell_writers(sweep, tmp_path, capsys):
    out, csv = tmp_path / "sweep.ppm", tmp_path / "sweep.csv"
    assert main(["region-plot", "--qmax", "10", "--cmin", "0", "--cmax", "8",
                 "--step-c", "1/8", "--out", str(out), "--csv", str(csv)]) == 0
    assert out.read_bytes() == _written(ref._write_ppm, sweep, False)
    assert csv.read_bytes() == _written(ref._write_csv, sweep, True).encode("ascii")


def test_region_tags_render_their_value_and_hash_by_identity():
    for tag in RegionTag:
        assert str(tag) == tag.value and f"{tag}" == tag.value
        assert RegionTag(tag.value) is tag and RegionTag[tag.name] is tag
        assert pickle.loads(pickle.dumps(tag)) is tag
        assert hash(tag) == hash(RegionTag(tag.value))
        assert {tag: 1}.get(RegionTag(tag.value)) == 1
    assert len(set(RegionTag)) == 14


@pytest.mark.parametrize("abc", [("3/4", 1, 3), ("13/17", 1, "77/17"), ("13/17", 1, "75/17"),
                                 ("13/17", 1, "22/5"), ("4/5", 1, "9/2")])
def test_decisions_hash_and_compare_equal_across_contexts_and_pickles(abc):
    a, b, c = (F(x) for x in abc)
    decisions = [classify(ctx.num(a), ctx.num(b), ctx.num(c))
                 for ctx in (RATIONAL, pi_context(), surd_context(2))]
    decisions.append(classify(rat(a), rat(b), rat(c)))
    decisions += [pickle.loads(pickle.dumps(d)) for d in decisions]
    first = decisions[0]
    for d in decisions:
        assert d == first and hash(d) == hash(first) and d.region is first.region
    assert len(set(decisions)) == 1

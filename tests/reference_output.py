"""The region-plot writers that formatted every cell on its own, kept as a
test oracle for the output bytes.

    job                      reference                tests (test_reference_output.py)
    region-plot output bytes _write_ppm, _write_csv   every writer test, byte for byte

`_write_ppm` extended a bytearray with the palette tuple of each cell;
`_write_csv` formatted both Fractions of each line.  Both are copied
unchanged from the code they replaced (only the imports differ).
"""

from __future__ import annotations

from gaborbox.cli import PALETTE


def _write_ppm(fh, avals, cvals, rows) -> None:
    header = f"P6\n{len(cvals)} {len(avals)}\n255\n".encode("ascii")
    body = bytearray()
    for row in rows:
        for region, verdict in row:
            body.extend(PALETTE[(region, verdict)])
    fh.write(header)
    fh.write(bytes(body))


def _write_csv(fh, avals, cvals, rows) -> None:
    lines = ["a,c,region,verdict"]
    for a_frac, row in zip(avals, rows):
        for c_frac, (region, verdict) in zip(cvals, row):
            lines.append(f"{a_frac},{c_frac},{region},{verdict}")
    fh.write("\n".join(lines))
    fh.write("\n")

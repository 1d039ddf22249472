"""Traced stand-in for `python -m gaborbox.cli`, used by the cli workload's
traced pass.

    python3 perfbench/cli_child.py OUT.json <gaborbox arguments...>

Runs gaborbox.cli.main under cProfile with the layer taps installed, writes
the reduced profile to OUT.json, and exits with main's exit code.  The import
of gaborbox.cli is left out of the profile; cli.import_s measures it.
"""

import cProfile
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gaborbox.cli  # noqa: E402

import layers  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    taps = layers.Taps()
    taps.install()
    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = gaborbox.cli.main(argv)
    except SystemExit as e:  # argparse rejects its input
        rc = e.code if isinstance(e.code, int) else 1
    finally:
        prof.disable()
        taps.remove()
    Path(out).write_text(json.dumps({"raw": layers.reduce_profile(prof), "taps": taps.counts}))
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload on tiny inputs (--smoke, --seconds 1) with and without
tracing, and checks that each result line is well formed: the metric names
and units are exactly those BENCHMARK.json lists for that mode, every value is
a number, and every decision passed its check.  The two raster runs share a
seed and must print the same PPM and CSV digests.  Then runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must fail
without printing a result.  Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def fail(msg):
    sys.exit(f"smoke: {msg}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    digests = set()
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = run(ROOT, "--workload", wl, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--smoke")
            where = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                fail(f"{where}: {res['failed']} of {res['attempted']} failed\n{proc.stdout}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                fail(f"{where}: metrics {got} differ from BENCHMARK.json {wanted[trace]}")
            for k, v in res["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    fail(f"{where}: {k} = {v['value']!r}")
            digests.update(line for line in proc.stdout.splitlines() if line.startswith("digests"))
            print(f"ok  {where}")
    if len(digests) != 1:
        fail(f"two raster runs with one seed wrote different bytes: {digests}")
    print("ok  raster bytes identical across runs")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "raster", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the run exited {proc.returncode} and printed {proc.stdout!r}")
    print("ok  no engine source: exits", proc.returncode, "with no result")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's median,
quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/report.py                       # every workload, 10 seeds
    python3 perfbench/report.py --workloads cli --seeds 5 --first-seed 100
    python3 perfbench/report.py --trace 1 --seeds 1   # per-layer metrics

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  The benchmark is steady when every spread
but setup_s stays under a third of its bound.  Each run's result line is kept
in .perfbench_out/report-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    steady = True
    for wl in args.workloads.split(","):
        results = []
        log = out_dir / f"report-{wl}.jsonl"
        with log.open("w") as fh:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    sys.exit(f"{wl} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"seed": seed, **res}) + "\n")
                results.append(res)
                if not res["correct"]:
                    steady = False
                    print(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} failed")
        print(f"\n{wl}: {len(results)} runs, seeds {args.first_seed}..{args.first_seed + args.seeds - 1}")
        print(f"  {'metric':<38} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <- over a third of its bound"
                steady = False
            print(f"  {name:<38} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6} {first['unit']}{flag}")
    print("\nsteady" if steady else "\nNOT steady")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark of the gaborbox decision engine.

Run from the root of a checkout (nothing to build; the engine is imported
from ./src):

    python3 perfbench/run.py --workload raster --seed 1 --seconds 20 --trace 0

Workloads: raster, agreement, certificates, cli (see workloads.py for why
each exists).  The timed phase repeats whole passes over the seeded inputs
until --seconds have gone by; every output is then checked, untimed, against
an independent reference.  The report goes to stdout, and its last line is
one JSON object with the keys correct, attempted, failed and metrics:

  --trace 0  the end-to-end metrics of BENCHMARK.json;
  --trace 1  the same timed phase, then one more pass under cProfile: the
             per-layer metrics, the tracing overhead, and the profile's
             caller/callee table in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from harness import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the median is reported
IMPORT_SAMPLES = 3
HARD_STOP_S = 150  # no decision starts later than this after launch


def import_engine():
    """Import gaborbox from this checkout's src/, or exit without a result."""
    pkg = SRC / "gaborbox"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source at {pkg}")
    sys.path.insert(0, str(SRC))
    import gaborbox

    if Path(gaborbox.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported gaborbox from {gaborbox.__file__}, not {pkg}")


def timed_phase(wl, seconds, hard_stop, meter):
    """Whole passes, back to back, until `seconds` have elapsed (at least one).

    Returns the passes and the peak RSS in MB after the first pass: later
    passes repeat the same work, and would only add the harness's own records.
    """
    passes = []  # (start, end, records)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = None
    start = time.perf_counter()
    wl.meter = meter
    with meter:
        while not passes or (time.perf_counter() - start < seconds
                             and time.monotonic() < hard_stop):
            t0 = time.perf_counter()
            recs = wl.run_pass(hard_stop)
            passes.append((t0, time.perf_counter(), recs))
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
            wl.after_pass(recs)
            if any(r.error is not None for r in recs):
                break
    wl.meter = None
    return passes, peak_rss_mb


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, meter, peak_rss_mb, setup_s, raw=False):
    """The end-to-end metrics, and the sorted decision latencies; times at the
    meter's reference speed unless raw."""
    by_key = {}
    for _, _, recs in passes:
        for r in recs:
            if r.start is not None:
                by_key.setdefault(r.key, []).append(meter.scaled(r.start, r.end, raw))
    lat = sorted(v for vals in by_key.values() for v in vals)
    decisions = sum(len(recs) for _, _, recs in passes)
    wall = sum(meter.scaled(t0, t1, raw) for t0, t1, _ in passes)
    return lat, {
        "decisions_per_s": (decisions / wall, "1/s"),
        # the typical input, by its median over the passes
        "decision_p50_ms": (statistics.median(statistics.median(v) for v in by_key.values())
                            * 1e3, "ms"),
        # slowest input, by its best time over the passes: noise only adds
        "decision_max_ms": (max(min(v) for v in by_key.values()) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def setup_seconds(args, meter):
    """Median, over fresh interpreters, of launch to ready-to-time, at the
    meter's reference speed (a calibration slice runs before and after each)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    walls = []
    for _ in range(SETUP_SAMPLES):
        meter.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        t1 = time.perf_counter()
        meter.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-500:]}")
        walls.append((meter.scaled(t0, t1), t1 - t0))
    return statistics.median(w for w, _ in walls), statistics.median(w for _, w in walls)


def import_seconds():
    """Median time to import gaborbox.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gaborbox.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    vals = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        vals.append(float(out.stdout))
    return statistics.median(vals)


def traced_pass(wl, passes, meter, hard_stop, label):
    """One more pass under cProfile; returns its records and the per-layer metrics."""
    import cProfile

    import numpy  # noqa: F401  imported here so no profile charges it to a layer

    import layers

    taps = layers.Taps()
    probe_prof = cProfile.Profile()
    pass_prof = cProfile.Profile()
    trace_dir = None
    if wl.name == "cli":
        trace_dir = OUT / f"{label}-children"
        trace_dir.mkdir(exist_ok=True)
        wl.trace_dir = trace_dir
    taps.install()
    try:
        probe_prof.enable()
        layers.probe(OUT)
        probe_prof.disable()
        for k in taps.counts:  # count the traced pass alone
            taps.counts[k] = 0
        t0 = time.perf_counter()
        pass_prof.enable()
        recs = wl.run_pass(hard_stop)
        pass_prof.disable()
        wall = time.perf_counter() - t0
    finally:
        taps.remove()
        if trace_dir is not None:
            wl.trace_dir = None
    pass_prof.dump_stats(str(OUT / f"{label}.pstats"))
    counted = layers.reduce_profile(pass_prof)
    tap_counts = dict(taps.counts)
    if trace_dir is not None:
        for child in sorted(trace_dir.glob("child-*.json")):
            data = json.loads(child.read_text())
            layers.add_raw(counted, data["raw"])
            for k, v in data["taps"].items():
                tap_counts[k] += v
            child.unlink()
        trace_dir.rmdir()
    timed = layers.add_raw(layers.add_raw({}, counted), layers.reduce_profile(probe_prof))
    extra = {k: (v, "count") for k, v in tap_counts.items()}
    extra.update({k: (v, "count") for k, v in wl.output_counts(recs).items()})
    extra["cli.import_s"] = (import_seconds(), "s")
    untraced = statistics.median(meter.scaled(t0, t1, raw=True) for t0, t1, _ in passes)
    extra["trace.overhead_s"] = (wall - untraced, "s")
    return recs, layers.finalize(timed, counted, extra)


def environment():
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,  # "gmpy" when gmpy2 backs it
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="gaborbox benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    hard_stop = time.monotonic() + HARD_STOP_S
    # One core for the whole run, children included: the speed meter's slices
    # then measure the core the decisions run on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"perfbench: running unpinned ({e})", file=sys.stderr)

    import_engine()
    OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    wl.warm_up()
    if args.setup_only:
        wl.close()
        sys.stdout.flush()
        os._exit(0)  # setup ends here; skip interpreter teardown

    meter = SpeedMeter()
    passes, peak_rss_mb = timed_phase(wl, args.seconds, hard_stop, meter)
    label = f"trace-{wl.name}-seed{args.seed}"
    raw = {}
    if args.trace:
        recs, metrics = traced_pass(wl, passes, meter, hard_stop, label)
        checked = [p[2] for p in passes] + [recs]
        wl.after_pass(recs)
    else:
        setup_s, setup_raw = setup_seconds(args, meter)
        lat, metrics = end_to_end(passes, meter, peak_rss_mb, setup_s)
        raw = end_to_end(passes, meter, peak_rss_mb, setup_raw, raw=True)[1]
        checked = [p[2] for p in passes]

    errors = [f"{r.key}: {r.error}" for recs in checked for r in recs if r.error is not None]
    failures = errors + wl.check(checked)
    wl.close()
    attempted = sum(len(recs) for recs in checked)
    failed = min(len(failures), attempted)

    slices = [e - s for s, e in zip(meter.starts, meter.ends)]
    print(f"workload   {wl.name} (seed {args.seed}): {wl.describe()}")
    print(f"passes     {len(passes)} timed, {sum(t1 - t0 for t0, t1, _ in passes):.3f} s wall"
          + (f"; 1 traced, profile in {OUT.name}/{label}.pstats" if args.trace else ""))
    print(f"speed      {len(slices)} calibration slices, median {statistics.median(slices) * 1e3:.3f} ms;"
          f" times are scaled to {SpeedMeter.REF_S * 1e3:g} ms a slice")
    if wl.name == "raster":
        print(f"digests    ppm {wl.digests[0][0]}  csv {wl.digests[0][1]}")
    print(f"env        {json.dumps(environment())}")
    for name, (value, unit) in metrics.items():
        as_run = f"   (as run: {raw[name][0]:.6g})" if name in raw and unit != "MB" else ""
        print(f"  {name:<38} {value:>14.6g} {unit:<6}{as_run}")
    if not args.trace:
        # reported, not gated: a p99 needs ten decisions beyond it, and a
        # failure share that reads 0 on a correct commit cannot carry a bound
        if len(lat) >= 1000:
            print(f"  {'decision_p99_ms':<38} {nearest_rank(lat, 0.99) * 1e3:>14.6g} ms")
        print(f"  {'failed_frac':<38} {failed / attempted:>14.6g}")
    for f in failures[:20]:
        print(f"FAIL {f}")
    print(f"checked    {attempted} decisions, {failed} failed")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

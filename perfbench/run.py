"""End-to-end and per-layer benchmark of the rrbandit harness runners.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qaoa-narrow --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

A run imports the checkout's src/ tree, calls one workload's runner
in-process with one worker, again and again until --seconds have passed,
and checks every job's output rows. With --trace 0 it reports end-to-end
metrics: the median wall time of a runner call, shots per second, the
start-up time of a fresh interpreter, and peak memory. With --trace 1 it
alternates untraced calls with calls whose layer entry points are wrapped
in timing spans (see layers.py), and reports per-layer self times and
counts. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

BLAS and OpenMP pools are pinned to one thread, so the figures measure the
program on one core rather than the thread scheduler.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from layers import PATCH_POINTS, PER_LAYER, ROOT_BUCKET, layer_values
from spans import Tracer, patched
from workloads import (WORKLOADS, check_runs, digests, read_runs,
                       run_pass)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_digests.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 5
# what a CLI call does before it can call a runner
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import rrbandit.harness.cli; print(time.perf_counter())")

END_TO_END = (
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment():
    import numpy
    import scipy
    from rrbandit import _accel

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    l2 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size",
                  encoding="utf-8") as fh:
            l2 = fh.read().strip()
    except OSError:
        pass
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "has_numba": _accel.HAS_NUMBA,
        "nproc": os.cpu_count(), "cpu": cpu, "l2_per_core": l2,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup():
    """Seconds from starting a fresh interpreter to the harness imported."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    # perf_counter is CLOCK_MONOTONIC, shared by both processes on Linux
    return float(done.stdout.split()[-1]) - start


def one_pass(workload, seed, out_dir, call):
    """One runner call on the workload's seed range, then its output checks."""
    spec = workload.spec(seed, out_dir)
    start = time.perf_counter()
    try:
        call(workload, spec)
    except Exception:  # a failed call is reported as failed jobs
        traceback.print_exc()
        return {"wall": time.perf_counter() - start,
                "failed": workload.jobs(), "solved": 0, "samples": 0,
                "digests": {}}
    wall = time.perf_counter() - start
    failed, solved, samples = check_runs(workload, seed, read_runs(out_dir))
    return {"wall": wall, "failed": failed, "solved": solved,
            "samples": samples, "digests": digests(out_dir)}


def run_passes(workload, seed, seconds, work_dir, calls, between=None):
    """Cycle through `calls` until MIN_PASSES rounds and --seconds are done.

    `between` runs after every round, so that what it measures is spread
    over the whole run like the passes are. Returns one list of pass
    records per call.
    """
    records = [[] for _ in calls]
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, call in enumerate(calls):
            out_dir = os.path.join(work_dir, f"pass-{rounds}-{i}")
            records[i].append(one_pass(workload, seed, out_dir, call))
            shutil.rmtree(out_dir, ignore_errors=True)
        if between is not None:
            between()
        rounds += 1
        used = time.perf_counter() - start
        if rounds >= MIN_PASSES and used * (rounds + 1) / rounds > seconds:
            return records


def reference_match(workload, seed, found):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            expected = json.load(fh)["digests"][workload.name].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None
    return None if expected is None else expected == found


def summarize(workload, seed, passes):
    """Counts and output checks shared by the traced and untraced runs."""
    first = passes[0]["digests"]
    attempted = workload.jobs() * len(passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "attempted": attempted, "failed": failed,
        "deterministic": all(p["digests"] == first for p in passes),
        "digests": first,
        "output_match": reference_match(workload, seed, first),
        "solved_ratio": passes[0]["solved"] / workload.jobs(),
        "failed_ratio": failed / attempted,
    }


def timed_run(workload, seed, seconds, work_dir):
    setups = []
    (passes,) = run_passes(workload, seed, seconds, work_dir, [run_pass],
                           between=lambda: setups.append(measure_setup()))
    walls = [p["wall"] for p in passes]
    wall = statistics.median(walls)
    summary = summarize(workload, seed, passes)
    summary["walls"] = walls
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": wall,
        "samples_per_s": passes[0]["samples"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    units = dict(END_TO_END)
    return summary, {name: (values[name], units[name]) for name in units}


def traced_run(workload, seed, seconds, work_dir):
    per_pass = []
    problems = []

    def traced_call(wl, spec):
        tracer = Tracer()
        with patched(tracer, PATCH_POINTS) as missing:
            start = time.perf_counter()
            tracer.wrap(ROOT_BUCKET, run_pass)(wl, spec)
            wall = time.perf_counter() - start
        problems.extend(f"not patched: {name}" for name in missing)
        negative = [b for b, v in tracer.self_s.items() if v < -1e-9]
        if negative:
            problems.append(f"negative self time in {negative}")
        if abs(tracer.total_self_s() - wall) > 1e-3 * wall:
            problems.append(f"self times sum to {tracer.total_self_s()!r}"
                            f" s, traced wall is {wall!r} s")
        per_pass.append(layer_values(tracer))

    plain, traced = run_passes(workload, seed, seconds, work_dir,
                               [run_pass, traced_call])
    summary = summarize(workload, seed, plain + traced)
    summary["problems"] = sorted(set(problems))
    if not per_pass:  # every traced call raised; its jobs count as failed
        per_pass.append(layer_values(Tracer()))
    values = {name: statistics.fmean(v[name] for v in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain))
    return summary, {name: (values[name], unit)
                     for name, unit, _ in PER_LAYER}


def run_all(args):
    """Run every workload in its own interpreter, one after the other."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "rrbandit", "__init__.py")):
        print(f"error: no rrbandit sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import rrbandit.harness  # noqa: F401  (imported before any timing)

    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        measure = traced_run if args.trace else timed_run
        summary, metrics = measure(workload, args.seed, args.seconds,
                                   work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = (summary["failed"] == 0 and summary["deterministic"]
               and not summary.get("problems"))
    print(f"workload {workload.name} (seed {args.seed}): "
          f"{workload.describe(args.seed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'solved_ratio':<24} {summary['solved_ratio']:>14.6g} ratio")
    print(f"  {'failed_ratio':<24} {summary['failed_ratio']:>14.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} jobs)")
    for problem in summary.get("problems", ()):
        print(f"  problem: {problem}")
    print(json.dumps({"environment": environment(), "seed": args.seed,
                      "workload": workload.name, "trace": args.trace,
                      "seeds": workload.describe(args.seed), **summary}))
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

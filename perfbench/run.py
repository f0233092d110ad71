#!/usr/bin/env python3
"""Build and run one workload of the ARROW benchmark.

    python3 perfbench/run.py --workload ibm-te-period --seed 1 --seconds 25 --trace 0

--workload all runs the three workloads in turn (nonzero if any fails).

Builds perfbench_runner (perfbench/CMakeLists.txt, which compiles the
libraries from src/) into .bench_build/perfbench, then runs the workload in a
child process. The runner prints every metric by name and unit; its last
stdout line is the JSON result. Exits nonzero when the build fails, an output
check fails, or the runner does not finish in time.

Extra flags: --smoke (tiny instance sizes, for perfbench/smoke_test.py) and
--ref-objective X (override the reference objective of perfbench/reference.json).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("ibm-te-period", "b4-serve", "fbsynth-sweep")
# A run measures for --seconds plus set-up; the slowest workload needs about
# twice its measuring time end to end.
RUNNER_TIMEOUT_S = 170


def build():
    """Configure (a no-op when nothing changed), then build incrementally.
    Returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return False


def reference_objective(workload, seed):
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload)
    if ref is not None and ref["seed"] == seed:
        return ref["first_period_objective"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--ref-objective", type=float)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args) for w in workloads]
    return next((code for code in codes if code != 0), 0)


def run_workload(workload, args):
    cmd = [RUNNER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    ref = args.ref_objective
    if ref is None and not args.smoke:
        ref = reference_objective(workload, args.seed)
    if ref is not None:
        cmd += ["--ref-objective", repr(ref)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUNNER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: runner exceeded %d s\n" % RUNNER_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload replay_burst --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --unit-tests

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a CMake project of its own, Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's result JSON.
Workloads and metrics are listed in BENCHMARK.json; perfbench/main.cc says
what each one measures.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def run(command, timeout_s):
    """Runs `command` with stdout passed through; returns its exit code."""
    try:
        return subprocess.run(command, cwd=ROOT, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {command[0]} timed out", file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--unit-tests"]:
        if not build(["perfbench_stats_test"]):
            return 1
        return run([os.path.join(BUILD, "perfbench_stats_test")], 120)
    if not build(["ams_perfbench"]):
        return 1
    sys.stdout.flush()
    return run([os.path.join(BUILD, "ams_perfbench")] + argv, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Wall-clock benchmark of the MapReduce matrix-inversion pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense|integrity|serve --seed N \
        --seconds S --trace 0|1 [--holdout]

Builds perfbench/ (which compiles the repository's src/ libraries) in
Release mode under .bench_build/perfbench, then runs the benchmark binary
with the same arguments. The binary prints machine facts, a metric table and,
as its last stdout line, one JSON result object; see perfbench/main.cpp.
Build output goes to stderr so that last line stays the result. Exits
non-zero, without a result line, when the build fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One builder at a time when several runs start in the same checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the dislock benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the libraries under
src/) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr; the benchmark's last stdout line is its
result. Traced runs (--trace 1) also write a Chrome trace to
.bench_build/perfbench/trace_<workload>_<seed>.json.
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dislock_perfbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "dislock_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

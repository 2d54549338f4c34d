#!/usr/bin/env python3
"""Measures the run-to-run spread of the dislock benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N] [--set-bounds]

Run from the repository root. Runs perfbench/run.py once per seed on each
workload, then prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. It also
checks that the failed share of operations is identical in every run, and
reruns the first seed to check that the deterministic work counters
repeat exactly. With --set-bounds it writes new bounds into
BENCHMARK.json: three times the widest spread seen on any workload,
rounded up to a hundredth, between 0.05 and 0.25; setup_s always gets the
largest bound, 0.25.
"""
import argparse
import fractions
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run(workload, seed, seconds):
    """One run: (result object, counters line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    counters = next((l for l in lines if l.startswith("counters ")), "")
    # The attempted/failed totals grow with the run; the per-round counters
    # before them must repeat exactly.
    return json.loads(lines[-1]), counters.split(" attempted=")[0]


def main():
    spec = json.load(open(SPEC))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--set-bounds", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    widest = {name: 0.0 for name in bounds}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results, counters = [], []
        for seed in seeds:
            result, counter_line = run(workload, seed, args.seconds)
            results.append(result)
            counters.append(counter_line)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), file=sys.stderr)
        print("\n%s (%d runs of %d s, seeds %d..%d)" % (
            workload, args.runs, args.seconds, seeds[0], seeds[-1]))
        print("  %-20s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            widest[name] = max(widest[name], spread)
            flag = "" if spread <= bounds[name] / 3 else "  above bound/3"
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
                name, median, q1, q3, spread, bounds[name], flag))
        shares = {fractions.Fraction(r["failed"], r["attempted"])
                  for r in results}
        correct = all(r["correct"] for r in results)
        rerun = run(workload, seeds[0], args.seconds)[1]
        repeat = rerun == counters[0]
        print("  all correct: %s; failed share: %s; counters repeat on "
              "seed %d: %s" % (correct, " / ".join(map(str, sorted(shares))),
                               seeds[0], repeat))
        ok = ok and correct and len(shares) == 1 and repeat

    if args.set_bounds:
        for metric in spec["end_to_end"]:
            bound = math.ceil(3 * widest[metric["name"]] * 100) / 100
            metric["bound"] = 0.25 if metric["name"] == "setup_s" else \
                min(0.25, max(0.05, bound))
        with open(SPEC, "w") as out:
            json.dump(spec, out, indent=2)
            out.write("\n")
        print("\nwrote bounds to BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

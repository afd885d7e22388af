#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change by?

Runs every workload of BENCHMARK.json in sets of runs, each run with
another seed, exactly as `command` says, and prints for every end-to-end
metric its median, its quartiles, the spread between the quartiles as a
share of the median, and the gap between the medians of two sets of the
same code. Exits 1 when a spread (except that of setup_s) or a gap is
wider than the metric's bound, 2 when a run fails.

    python3 fsbench/check.py [--sets 2] [--runs 10] [--workload NAME]
                             [--trace] [--first-seed 1]

Run it from the repository root, on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(decl, workload, seed, trace):
    cmd = decl["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(decl["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload} seed {seed}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"], took


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true", help="check the traced runs and their metric names instead")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        decl = json.load(f)
    declared = decl["per_layer"] if args.trace else decl["end_to_end"]
    names = [m["name"] for m in declared]
    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    worst = 0
    for workload in workloads:
        sets = []
        seed = args.first_seed
        longest = 0.0
        for _ in range(args.sets):
            values = {n: [] for n in names}
            for _ in range(args.runs):
                metrics, took = run_once(decl, workload, seed, args.trace)
                seed += 1
                longest = max(longest, took)
                if sorted(metrics) != sorted(names):
                    sys.exit(f"{workload}: emitted {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
                for m in declared:
                    if metrics[m["name"]]["unit"] != m["unit"]:
                        sys.exit(f"{workload}: {m['name']} has unit {metrics[m['name']]['unit']}")
                    values[m["name"]].append(metrics[m["name"]]["value"])
            sets.append(values)
        print(f"\n{workload}: {args.sets} sets of {args.runs} runs, longest run {longest:.1f} s")
        if args.trace:
            for n in names:
                print(f"  {n:<36} median {statistics.median(sets[0][n]):.6g}")
            continue
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'gap':>8} {'bound':>6}")
        for m in declared:
            n, bound = m["name"], m["bound"]
            first = sets[0][n]
            med = statistics.median(first)
            if len(first) >= 2:
                q1, _, q3 = statistics.quantiles(first, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            gap = 0.0
            for later in sets[1:]:
                change = (statistics.median(later[n]) - med) / med
                gap = max(gap, change if m["better"] == "lower" else -change)
            verdict = ""
            if (spread > bound and n != "setup_s") or gap > bound:
                verdict, worst = "  <-- wider than the bound", 1
            elif spread > bound / 3 and n != "setup_s":
                verdict = "  (over a third of the bound)"
            print(f"  {n:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {gap:>8.4f} {bound:>6}{verdict}")
    sys.exit(worst)


if __name__ == "__main__":
    main()

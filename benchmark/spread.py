#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, the figure its bounds rest on.

    python3 benchmark/spread.py [--runs N] [--first-seed S] [--same-seed | --random-seeds]
                                [--trace] [workload ...]

Runs `benchmark/run.sh` N times (default 10) per workload, seeds S, S+1, ...,
for the `run_seconds` of BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, beside the metric's
bound. With --same-seed every run uses seed S, so the spread is run-to-run
noise alone, without the variation between inputs of different seeds. With
--random-seeds the seeds are 32-bit numbers drawn from a generator seeded
with S, so the runs see seeds that no golden file covers. With --trace it
runs traced passes and only checks that each one reports every per-layer
metric.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1]), time.time() - start


def main():
    args = sys.argv[1:]
    runs, first, same, drawn, trace = 10, 1, False, False, False
    while args and args[0].startswith("--"):
        flag = args.pop(0)
        if flag == "--trace":
            trace = True
        elif flag == "--same-seed":
            same = True
        elif flag == "--random-seeds":
            drawn = True
        elif flag == "--runs":
            runs = int(args.pop(0))
        elif flag == "--first-seed":
            first = int(args.pop(0))
        else:
            sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if trace else "end_to_end"]
    if same:
        seeds = [first] * runs
    elif drawn:
        rng = random.Random(first)
        seeds = [rng.randrange(2**32) for _ in range(runs)]
    else:
        seeds = list(range(first, first + runs))
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            result, wall = run(workload, seed, bench["run_seconds"], trace)
            walls.append(wall)
            bad = [] if result["correct"] and result["failed"] == 0 else ["INCORRECT"]
            missing = sorted(set(values) ^ set(result["metrics"]))
            if missing:
                bad.append(f"metrics differ: {missing}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = "" if trace else " ".join(f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics)
            print(f"{workload} seed {seed}: {wall:.1f} s {shown} {' '.join(bad)}", flush=True)
        print(f"\n{workload}: {runs} runs, run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        if trace:
            continue
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            print(f"| {m['name']} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {m['bound']} |")
        print(flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs the BENCHMARK.json command on every workload with ten seeds and
prints, per end-to-end metric, the median and the interquartile spread as a
share of it, next to the metric's bound. Run from the repository root:

    python3 benchmark/spread.py [first_seed] [runs]

A spread above a third of the bound is marked; the benchmark is only useful
for admitting a change while every spread stays well inside its bound.
"""

import json
import statistics
import subprocess
import sys
import time

first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
spec = json.load(open("BENCHMARK.json"))

for workload in (w["name"] for w in spec["workloads"]):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    started = time.time()
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (workload, seed, result)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{workload}: {runs} runs, {(time.time() - started) / runs:.1f} s each")
    for m in spec["end_to_end"]:
        q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / median
        mark = "  <-- above a third of the bound" if spread > m["bound"] / 3 else ""
        print(
            f"  {m['name']:<20} median {median:>14.4f} {m['unit']:<5}"
            f" spread {spread:7.2%}  bound {m['bound']:.0%}{mark}"
        )
        if mark:
            print("    " + " ".join(f"{v:.4g}" for v in sorted(values[m["name"]])))

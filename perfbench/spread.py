#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs perfbench/run.py
once per seed and reports, per metric, the median over the runs and
the distance between the first and third quartile as a share of it,
against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload explore-cross \
        [--runs 10] [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib

BENCH = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"])],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        results.append(result)
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = benchlib.quartile_spread(values)
        verdict = "ok" if spread < metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "OVER BOUND")
        print(f"{metric['name']:16s} {statistics.median(values):12.6g} "
              f"{spread:8.4f} {metric['bound']:6.2f}  {verdict}")


if __name__ == "__main__":
    main()

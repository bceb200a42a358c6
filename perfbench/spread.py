#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --seconds 15 [--workload NAME ...]

Runs perfbench/run.py once per seed (first seed --first-seed, then +1,
...) for each workload and prints, per metric, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound BENCHMARK.json fixes for that metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    for workload in args.workload or names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({args.runs} runs, {args.seconds:g} s each)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:20s} median {med:14.4f}  spread {spread:7.4f}  "
                  f"bound {bounds.get(name, float('nan')):.2f}  "
                  f"values {[round(v, 1) for v in vals]}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

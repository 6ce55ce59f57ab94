#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--seconds S] [--out FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...), then
prints for every metric the median and the spread: the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a
share of the median, next to the metric's bound in BENCHMARK.json. A
metric whose spread exceeds a third of its bound is marked "WIDE".
--out appends every run's result line to FILE as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **result}) + "\n")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: ok", file=sys.stderr, flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        mark = ""
        if bound is not None and spread > bound / 3:
            mark = "WIDE"
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-':>5}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rerun one workload with several seeds and report each metric's spread.

    python3 bench/spread.py --workload represent --runs 10 [--first-seed 1]

Runs `bench/run.py` once per seed, one run at a time, for `run_seconds` of
BENCHMARK.json and with the end-to-end metrics, and prints for each
metric the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the distance between the quartiles as a share of the median, which is what
a metric's bound in BENCHMARK.json has to exceed.  It also prints the share
of failed operations of every run, which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0"]
        done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({result['failed'] / result['attempted']:.6f}) {values}", flush=True)

    print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:32} {first['unit']:>6} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:10.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {'the same in every run' if len(shares) == 1 else 'DIFFERS'} {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

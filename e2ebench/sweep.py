#!/usr/bin/env python3
"""Runs the benchmark over several seeds and writes a result set.

    python3 e2ebench/sweep.py --out results_a.jsonl --seeds 1-10
    python3 e2ebench/sweep.py --out heldout.jsonl --workloads camera_stream --seeds 900001-900005

One JSON line per run: {"workload", "seed", "trace", "result"}, where
"result" is the run's final stdout line. At the end it prints, per
workload and metric, the median and the interquartile spread as a share of
the median — the figure the benchmark's bounds are checked against. Feed
two result sets to e2ebench/compare.py to compare builds.
"""

import argparse
import json
import os
import subprocess
import sys

from stats import quartiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("camera_stream", "bulk_mobilenet", "wire_offload", "edge_training")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSONL result set to append to")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rows = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, end="")
                raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
            row = {"workload": workload, "seed": seed, "trace": args.trace,
                   "result": json.loads(lines[-1])}
            rows.append(row)
            with open(args.out, "a") as out:
                out.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)

    for workload in args.workloads.split(","):
        results = [r["result"] for r in rows if r["workload"] == workload]
        if not results:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:15s} {name:28s} median {med:14.6g}  "
                  f"q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.2%}")


if __name__ == "__main__":
    main()

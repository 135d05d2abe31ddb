#!/usr/bin/env python3
"""Compares two benchmark result sets metric by metric.

    python3 e2ebench/compare.py base.jsonl candidate.jsonl

Result sets are the JSONL files e2ebench/sweep.py writes. For every
workload and every metric BENCHMARK.json names, it prints each side's
median and quartiles, each side's spread (q3 - q1 as a share of the
median), the change of the median, and a verdict:

- "agree": both spreads and the change of the median are within the
  metric's bound (BENCHMARK.json `bound`);
- "better" / "worse": the medians differ by more than the bound, in the
  metric's better or worse direction;
- "noisy": a spread exceeds the bound, so the two sets cannot be compared
  (setup_s is exempt: only its median is bounded).

Per-layer metrics have no bound; they are listed with their change only.
The exit code is 1 when any end-to-end metric is "worse" or "noisy".
"""

import argparse
import json
import os
import sys

from stats import quartiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load(path):
    by_key = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                by_key.setdefault((row["workload"], row["trace"]), []).append(row["result"])
    return by_key


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def verdict(name, base, cand, bound, better):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(cand)
    if bound is None:
        return "-"
    if bm == 0:
        return "agree" if cm == 0 else ("better" if (cm > 0) == (better == "higher") else "worse")
    spreads_bounded = name != "setup_s"
    if spreads_bounded and ((b3 - b1) / abs(bm) > bound or (c3 - c1) / abs(cm if cm else bm) > bound):
        return "noisy"
    change = (cm - bm) / abs(bm)
    if abs(change) <= bound:
        return "agree"
    improved = change > 0 if better == "higher" else change < 0
    return "better" if improved else "worse"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as handle:
        spec = json.load(handle)
    base, cand = load(args.base), load(args.candidate)

    failed = False
    header = (f"{'workload':15s} {'metric':38s} {'base q1/median/q3':>36s} "
              f"{'candidate q1/median/q3':>36s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in [w["name"] for w in spec["workloads"]]:
            b_runs, c_runs = base.get((workload, trace)), cand.get((workload, trace))
            if not b_runs or not c_runs:
                continue
            for metric in metrics:
                b, c = values(b_runs, metric["name"]), values(c_runs, metric["name"])
                if not b or not c:
                    continue
                bq, cq = quartiles(b), quartiles(c)
                change = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
                bound = metric.get("bound")
                v = verdict(metric["name"], b, c, bound, metric["better"])
                failed = failed or v in ("worse", "noisy")
                fmt = "{:11.5g} {:11.5g} {:11.5g}"
                print(f"{workload:15s} {metric['name']:38s} {fmt.format(*bq):>36s} "
                      f"{fmt.format(*cq):>36s} {change:8.2%} "
                      f"{'' if bound is None else format(bound, '.2f'):>6s}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result files written by stability.py --out.

    python3 perfbench/compare.py parent.json change.json

For every workload and end-to-end metric, prints both medians, the
change's median delta (positive = better, in the metric's own direction)
and the bound BENCHMARK.json fixes. Verdicts:

  regression  the change's median is worse than the parent's by more
              than the bound
  better      better by more than the wider of the two sides' spreads
  same        within the bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, so the runs cannot tell -- unless every run
              of the change beats every run of the parent

Exits 1 when any pairing is a regression.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def verdict(metric, a, b):
    lower = metric["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    gain = (ma - mb) / ma if lower else (mb - ma) / ma
    wide = max(spread(a), spread(b))
    beats = (max(b) < min(a)) if lower else (min(b) > max(a))
    if wide > metric["bound"] and not beats:
        return ma, mb, gain, "unresolved"
    if gain < -metric["bound"]:
        return ma, mb, gain, "regression"
    if gain > wide or beats:
        return ma, mb, gain, "better"
    return ma, mb, gain, "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(argv[0]) as f:
        parent = json.load(f)["runs"]
    with open(argv[1]) as f:
        change = json.load(f)["runs"]
    regressions = 0
    for workload in parent:
        if workload not in change:
            continue
        print("== %s" % workload)
        print("   %-18s %14s %14s %9s %6s  %s" % (
            "metric", "parent", "change", "delta", "bound", "verdict"))
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in parent[workload]]
            b = [r["metrics"][m["name"]] for r in change[workload]]
            ma, mb, gain, v = verdict(m, a, b)
            regressions += v == "regression"
            print("   %-18s %14.6g %14.6g %+8.2f%% %5.0f%%  %s" % (
                m["name"], ma, mb, 100 * gain, 100 * m["bound"], v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run every workload several times, one seed per run, and report each
end-to-end metric's median and quartiles against its bound; then check
that one seed run twice repeats exactly.

    python3 perfbench/stability.py --runs 10 --out results.json
    python3 perfbench/stability.py --runs 5 --workloads drift-dash

A metric is steady when the distance between its first and third
quartile, as a share of its median, stays within a third of its bound,
and too noisy when it exceeds the bound. Every end-to-end metric is
judged, setup_s too. The printed notes -- tick mode split (share of
ticks that redeployed, hold and redeploy tick medians), the host speed
the gauge saw, and figures as read before scaling -- show where the
tick percentiles sit and what the scaling removed.

Repeat check: the first seed of each workload is run once more untraced
and twice traced. All four runs must print the same determinism digest;
the untraced pair the same modeled_latency, and the traced pair the same
deterministic per-layer figures. A mismatch is a failed check.

The --out file is what compare.py reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOTES = ("tick.redeploy_share", "tick.hold_ms_p50", "tick.redeploy_ms_p50", "host.speed",
         "raw.pkts_per_s", "raw.tick_ms_p50", "raw.update_us_p50", "raw.setup_s", "episodes")
# Figures that are a pure function of the workload and seed.
EXACT_UNTRACED = ("modeled_latency",)
EXACT_TRACED = ("sim.alloc_words_per_pkt", "controller.redeploys", "controller.tables_rebuilt",
                "controller.downtime_s", "fleet.cache_hit_ratio")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    digest = lines[0].split()[-1]
    notes = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in NOTES:
            notes[parts[0]] = float(parts[1])
    return {"seed": seed, "digest": digest, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "notes": notes}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def repeat_check(workload, first, seed, seconds):
    """Failed checks when `seed` is run again: once untraced, twice traced."""
    again = run_once(workload, seed, seconds)
    traced = [run_once(workload, seed, seconds, trace=1) for _ in range(2)]
    failed = 0
    for r in [again] + traced:
        failed += r["digest"] != first["digest"]
        failed += not r["correct"]
    for k in EXACT_UNTRACED:
        failed += again["metrics"][k] != first["metrics"][k]
    for k in EXACT_TRACED:
        failed += traced[0]["metrics"][k] != traced[1]["metrics"][k]
    print("   repeat seed %d: digest %s, %d mismatches; %s" % (
        seed, first["digest"], failed,
        ", ".join("%s=%s" % (k, traced[0]["metrics"][k]) for k in EXACT_TRACED)))
    return failed


def report(bench, runs_by_workload, repeats):
    ok = True
    for workload, runs in runs_by_workload.items():
        print("== %s (%d runs, failed checks %d)" % (
            workload, len(runs), sum(r["failed"] for r in runs)))
        print("   %-18s %14s %14s %14s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            med, q1, q3, spread = summary(values)
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("   %-18s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s" % (
                m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
        for note in NOTES:
            values = [r["notes"][note] for r in runs if note in r["notes"]]
            if len(values) >= 2:
                print("   %-22s %14.6g  (min %.6g, max %.6g, spread %.2f%%)" % (
                    note, statistics.median(values), min(values), max(values),
                    100 * summary(values)[3] if len(values) >= 2 else 0))
        if any(not r["correct"] for r in runs):
            ok = False
        if workload in repeats:
            print("   repeat check: %d mismatches" % repeats[workload])
            ok = ok and repeats[workload] == 0
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--no-repeat", action="store_true", help="skip the repeat check")
    p.add_argument("--out")
    args = p.parse_args()
    bench = load_bench()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs_by_workload = {}
    repeats = {}
    for w in workloads:
        runs_by_workload[w] = []
        for i in range(args.runs):
            r = run_once(w, args.first_seed + i, seconds)
            runs_by_workload[w].append(r)
            print("   %s seed %d: %s %s" % (w, r["seed"], json.dumps(r["metrics"]),
                                          json.dumps(r["notes"])), file=sys.stderr)
        if not args.no_repeat:
            repeats[w] = repeat_check(w, runs_by_workload[w][0], args.first_seed, seconds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs_by_workload, "repeat_mismatches": repeats},
                      f, indent=1)
    return 0 if report(bench, runs_by_workload, repeats) else 1


if __name__ == "__main__":
    sys.exit(main())

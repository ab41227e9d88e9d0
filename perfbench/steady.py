#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs every workload at least ten
times in each of two separate sets, one after the other (--sets 1: one
set, for the spreads alone). Inside a set
the workload order alternates from run to run; run i of either set uses
seed first_seed + i. It prints the median and quartiles of every
end-to-end metric per workload.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

For each metric it reports the spread, (q3 - q1) / median as
statistics.quantiles(values, n=4) gives the quartiles, of each set (the
wider of the two), the change of the second set's median against the
first's, and the bound that spread supports: three times the spread,
rounded up to 0.05 and capped at 0.25. It also checks that the share of
failed operations is identical in every run and that every run reported
correct results. A JSON summary goes to perfbench/results/steady.json.

Verdict, the same rule for every metric: "steady" when every spread is at
most a third of its bound in BENCHMARK.json and no second-set median is
worse than the first by more than the bound; "within bounds" when some
spread is above a third of its bound but none above the bound; else "NOT
steady" (exit code 1). A spread above a third of its bound is marked
"margin", one above the bound "WIDE", a median change beyond the bound
"WORSE".
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def supported_bound(s):
    return min(0.25, max(0.05, math.ceil(3 * s * 20) / 20))


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload per set (at least 10)")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2,
                        help="1: one set of runs, spreads only")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [[], []] for w in workloads}
    for set_index in range(args.sets):
        for run in range(args.runs):
            order = workloads if run % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.first_seed + run
                start = time.monotonic()
                r = run_once(bench["command"], w, seed, args.seconds)
                results[w][set_index].append(r)
                status = "FAILED" if r is None else (
                    "ok" if r["correct"] else "INCORRECT")
                print("set %d run %2d %-14s seed %3d %-9s %5.1f s" %
                      (set_index + 1, run + 1, w, seed, status,
                       time.monotonic() - start),
                      file=sys.stderr, flush=True)

    summary = {}
    healthy = True
    margins = 0
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        if any(r is None or not r["correct"] for r in runs):
            print("%s: a run failed or reported incorrect results" % w)
            healthy = False
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: failed share %s in every run" %
              (w, "identical" if len(shares) == 1 else "NOT identical"))
        healthy &= len(shares) == 1
        summary[w] = {}
        for name in bounds:
            per_set = [[r["metrics"][name]["value"] for r in s]
                       for s in results[w] if s]
            if len(per_set) == 1:
                per_set *= 2
            values = per_set[0] + per_set[1]
            q1, med, q3 = statistics.quantiles(values, n=4)
            s = max(spread(per_set[0]), spread(per_set[1]))
            m1 = statistics.median(per_set[0])
            m2 = statistics.median(per_set[1])
            better = next(m["better"] for m in bench["end_to_end"]
                          if m["name"] == name)
            drift = (m2 - m1) / m1 if m1 else 0.0
            worse = drift if better == "lower" else -drift
            ok_spread = s <= bounds[name]
            margin = ok_spread and s > bounds[name] / 3
            ok_drift = worse <= bounds[name]
            healthy &= ok_spread and ok_drift
            margins += margin
            print("  %-22s median %12.6g  q1 %12.6g  q3 %12.6g  spread "
                  "%.3f (bound %.2f%s)  set2 vs set1 %+.3f%s  supports %.2f" %
                  (name, med, q1, q3, s, bounds[name],
                   " margin" if margin else ("" if ok_spread else " WIDE"),
                   drift, "" if ok_drift else " WORSE", supported_bound(s)))
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": s, "set_medians": [m1, m2],
                                "supported_bound": supported_bound(s),
                                "values": per_set}
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "results", "steady.json"), "w") as f:
        json.dump({"runs_per_set": args.runs, "seconds": args.seconds,
                   "workloads": summary}, f, indent=1)
    if not healthy:
        print("NOT steady")
    elif margins:
        print("within bounds (%d spread(s) above a third of the bound)" %
              margins)
    else:
        print("steady")
    sys.exit(0 if healthy else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness self-check: run workloads repeatedly and report each metric's
median and spread.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 seeds x every workload
    python3 perfbench/steady.py --runs 5 --workloads wal-write
    python3 perfbench/steady.py --trace 1 --runs 3   # per-layer metrics

For each metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median. With --trace 0 each
spread is compared with a third of the metric's bound in BENCHMARK.json;
setup_s is reported but exempt, as in the acceptance rule. With
--trace 1 it checks that the program's own counts repeat across seeds:
runtime.alloc_bytes_per_op and transport.msgs_per_op. Exits 1 when a
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ("runtime.alloc_bytes_per_op", "transport.msgs_per_op")
COUNT_TOLERANCE = 0.02  # the counts run on real threads; repeat within 2%


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            res, info = run_once(w, args.seed0 + i, args.seconds, args.trace)
            results.append(res)
            line = " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())
                            if args.trace == 1 or k in bounds)
            print("%s seed=%d correct=%s attempted=%d failed=%d steal=%.3f %s" %
                  (w, args.seed0 + i, res["correct"], res["attempted"], res["failed"],
                   info.get("cpu_steal_frac", 0.0), line), flush=True)
            if not res["correct"]:
                ok = False
        print("== %s: %d runs, %s s, %d CPUs, GOMAXPROCS %d, %s" %
              (w, args.runs, args.seconds, info["cpus"], info["gomaxprocs"], info["go"]))
        print("%-28s %14s %14s %14s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "limit"))
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            if len(vals) < 2:
                continue
            q1, med, q3, sp = spread(vals)
            limit = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                limit = "%.4f" % (bounds[name] / 3)
                if sp > bounds[name] / 3:
                    limit += " FAIL"
                    ok = False
            if args.trace == 1 and name in EXACT_COUNTS:
                lo, hi = min(vals), max(vals)
                rel = (hi - lo) / med if med else 0.0
                limit = "rng %.4f" % rel
                if rel > COUNT_TOLERANCE:
                    limit += " FAIL"
                    ok = False
            print("%-28s %14.6g %14.6g %14.6g %8.4f %s" % (name, q1, med, q3, sp, limit))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

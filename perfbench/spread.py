#!/usr/bin/env python3
"""Runs workloads over several seeds and prints each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 10]

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs and the distance between the first and third quartile as a share of
that median (statistics.quantiles(values, n=4)), next to the metric's bound.
A spread above a third of the bound is flagged. Runs go one after another,
each in its own process, through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds) for s in parse_seeds(args.seeds)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        print("%s: correct=%s failed/attempted=%s" % (
            workload, all(r["correct"] for r in results), sorted(shares)))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            print("  %-22s median %12.5g %-4s spread %6.3f  bound %.2f%s" % (
                m["name"], med, m["unit"], spread, m["bound"], flag))
            print("  %22s [%s]" % ("", ", ".join("%.4g" % v for v in values)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

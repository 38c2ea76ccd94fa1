#!/usr/bin/env python3
"""Determinism self-check and tracing-overhead report for the benchmark.

    python3 perfbench/selfcheck.py [--seed 7] [--rounds 20] [--overhead]

For every workload it runs the traced mode twice with one seed and a fixed
number of rounds, and asserts that every per-layer count (every metric whose
unit is not a time), the input fingerprint and the attempted/failed counts
repeat exactly. It then runs the next seed and asserts that the generated
inputs changed. It also checks that the per-layer names the driver prints
are exactly those BENCHMARK.json lists. Exits non-zero on any mismatch.

With --overhead it then runs each workload untraced and traced for
run_seconds with the same seed and prints the end-to-end deltas: the cost
of tracing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"s", "ms", "us"}


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run(workload, seed, trace, seconds, rounds=None):
    """Returns (result line, trace file contents or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        return result, None
    path = os.path.join(build_dir(), "traces", "%s-seed%d.json" % (workload, seed))
    with open(path) as f:
        return result, json.load(f)


def counts(result, trace):
    c = {name: m["value"] for name, m in result["metrics"].items()
         if m["unit"] not in TIME_UNITS}
    c["attempted"] = result["attempted"]
    c["failed"] = result["failed"]
    c["inputs_fingerprint"] = trace["inputs_fingerprint"]
    return c


def check_determinism(bench, seed, rounds):
    names = [m["name"] for m in bench["per_layer"]]
    ok = True
    for w in (x["name"] for x in bench["workloads"]):
        r1, t1 = run(w, seed, 1, bench["run_seconds"], rounds)
        r2, t2 = run(w, seed, 1, bench["run_seconds"], rounds)
        r3, t3 = run(w, seed + 1, 1, bench["run_seconds"], rounds)
        if list(r1["metrics"]) != names:
            print("FAIL %s: per-layer names differ from BENCHMARK.json" % w)
            ok = False
        c1, c2 = counts(r1, t1), counts(r2, t2)
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        if diff:
            ok = False
            for k in diff:
                print("FAIL %s: %s %r != %r" % (w, k, c1[k], c2[k]))
        if t3["inputs_fingerprint"] == t1["inputs_fingerprint"]:
            ok = False
            print("FAIL %s: seeds %d and %d generated the same inputs"
                  % (w, seed, seed + 1))
        if not (r1["correct"] and r2["correct"] and r3["correct"]):
            ok = False
            print("FAIL %s: a run reported wrong answers" % w)
        nonzero = sum(1 for k, v in c1.items() if v not in (0, "0"))
        print("%s %s: %d counts repeat exactly (%d non-zero); inputs %s (seed %d)"
              " vs %s (seed %d)" % ("ok  " if not diff else "FAIL", w, len(c1),
                                    nonzero, t1["inputs_fingerprint"], seed,
                                    t3["inputs_fingerprint"], seed + 1))
    return ok


def report_overhead(bench, seed):
    print("tracing overhead (traced - untraced) / untraced, seed %d, %d s runs:"
          % (seed, bench["run_seconds"]))
    for w in (x["name"] for x in bench["workloads"]):
        plain, _ = run(w, seed, 0, bench["run_seconds"])
        _, trace = run(w, seed, 1, bench["run_seconds"])
        cells = []
        for m in bench["end_to_end"]:
            a = plain["metrics"][m["name"]]["value"]
            b = trace["end_to_end_traced"][m["name"]]["value"]
            cells.append("%s %+.1f%%" % (m["name"], 100.0 * (b - a) / a))
        print("  %-14s %s" % (w, ", ".join(cells)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    bench = bench_json()
    ok = check_determinism(bench, args.seed, args.rounds)
    if args.overhead:
        report_overhead(bench, args.seed)
    print("determinism self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The driver is built from this directory's
own CMake package into $CARGO_TARGET_DIR (default `.bench_build`), so the
repository's build tree is never touched. The last line of standard output
is the workload's result as one JSON object. With `--trace 1` the spans, the
per-layer metrics, each layer's self time and the traced end-to-end metrics
are also written to `.bench_build/traces/<workload>-seed<n>.json`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("fem_disk", "seg_churn", "label_mix", "dist_loopback")
# A run (build excluded) must end well inside the 180 s a caller allows.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 1


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = max(1.0, deadline - time.monotonic())
    if run_quiet(["cmake", "--build", out, "-j", jobs], remaining) != 0:
        return None
    return os.path.join(out, "relbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many measured rounds instead of "
                         "--seconds of them (the determinism check uses it)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir(), "run")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print("perfbench: %s exited with %d and no result"
              % (args.workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

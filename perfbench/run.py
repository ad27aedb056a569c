#!/usr/bin/env python3
"""Builds and runs the FlatStore benchmark (perfbench/flatbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload etc-read --seed 1 --seconds 10 --trace 0

The engine is compiled from ../src into .bench_build/ (incremental after
the first run); traces of --trace 1 runs go to .bench_out/. Stdout carries
the metric tables and, as its last line, the JSON result; the exit code is the
benchmark's own (0 only when every correctness check passed). The metric
names it prints are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flatbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("etc-read", "write-gc", "scan-tier")
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds flatbench; returns the binary path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD, "flatbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one read-back expectation (must fail)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("flatbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stderr.write(proc.stdout)
        print("flatbench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    want = expected_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        print("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)), file=sys.stderr)
        return 1
    # The metric tables, then the result as the last line.
    print("\n".join(lines))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

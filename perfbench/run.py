#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload hh_backbone --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The program is compiled in Release from ../src into .bench_build/perfbench
(never the repository's own build/ tree), then one workload runs in its own
process. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (whose spans are written to
.bench_build/perfbench/spans/). Any failure to build or run exits non-zero
without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hh_backbone", "hhh_sampled", "state_transfer")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "pipeline.hpp")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "2"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def metric_names(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests instead")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    if sorted(result["metrics"]) != sorted(metric_names(args.trace)):
        fail("the metrics measured differ from those BENCHMARK.json lists")
    if not result["correct"] or result["failed"]:
        print(f"perfbench: WARNING: {args.workload} is not correct "
              f"({result['failed']} of {result['attempted']} operations failed; "
              "the checks that did not hold are listed above)", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload mesh_read --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds perfbench (a CMake project
compiling the layers it drives from src/) into .bench_build/perfbench, runs
the workload, checks the metric names and units against BENCHMARK.json and
prints the result object as the last line of stdout.  With --trace 1 the
per-layer metrics of layers the workload leaves idle read 0.

Exit status: 0 on a correct run; 1 on a build failure, a correctness
violation or a malformed result; 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace == 1)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != declared[name]:
            fail(f"metric {name} has unit {metric['unit']}, declared {declared[name]}")
    missing = [name for name in declared if name not in metrics]
    if args.trace == 0 and missing:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    if not result["correct"]:
        fail("correctness check failed")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

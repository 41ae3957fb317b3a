#!/usr/bin/env python3
"""Builds and runs one workload of the focq end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every run configures and builds the benchmark
package (perfbench/CMakeLists.txt, which builds the focq libraries from src/)
in .bench_build/perfbench -- a full build the first time, a check after --
and runs its statistics tests.
Build output goes to stderr. Standard output is the benchmark's report
followed, as its last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A traced run also writes a chrome://tracing
file to .bench_build/perfbench/trace_<workload>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "focq_perfbench",
         "perfbench_stats_test"],
        [os.path.join(BUILD, "perfbench_stats_test"), "--gtest_brief=1"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    build()

    cmd = [os.path.join(BUILD, "focq_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--set", "%s=%s" % (key, value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, not %s" % (m["name"], got["unit"],
                                                     m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload under several seeds and prints, per end-to-end metric,
the median and the interquartile spread as a share of the median (the
steadiness measure BENCHMARK.json's bounds are checked against).

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3,4,5 [--seconds S]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        print("seed %s: correct=%s failed=%d %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-14s median %-12.5g spread %.3f  (bound %.2f, bound/3 %.3f)" % (
            name, med, spread, bounds[name], bounds[name] / 3))


if __name__ == "__main__":
    main()

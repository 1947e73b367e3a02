#!/usr/bin/env python3
"""Runs one perfbench workload N times with different seeds and prints, for
each metric, its median, quartiles and quartile spread as a share of the
median -- the statistic the bounds in BENCHMARK.json are set against.

    python3 perfbench/sweep.py --workload <name> [--runs 10] [--seconds S]

Run from the root of the repository. --seconds defaults to BENCHMARK.json's
run_seconds. Run i (from 1) uses seed i and prints the end-to-end metrics
(--trace 0). Each run is a separate process, one after another.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    spec = {}
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec.get("run_seconds", 10))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    values = {}
    units = {}
    shares = set()
    for i in range(args.runs):
        seed = 1 + i
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: correctness checks failed" % seed)
            return 1
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d (%.0f s): %s" % (seed, time.monotonic() - start, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("\nworkload %s, %d runs of %d s, failed share %s" % (
        args.workload, args.runs, args.seconds, sorted(shares)))
    print("%-34s %14s %14s %14s %9s %7s" % (
        "metric", "q1", "median", "q3", "iqr/med", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s %14.6g %14.6g %14.6g %9.4f %7s" % (
            name + " [" + units[name] + "]", q1, med, q3, spread,
            "" if bound is None else "%.2f" % bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())

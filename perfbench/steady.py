#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: runs one workload N times, each with
another seed, and prints per metric the median, the quartiles, the
interquartile range and (max - min) as shares of the median, against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve-sp --runs 10 [--seed-base 1]

The summary is also written to .bench_run/steady-<workload>-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    plain = {}  # plain medians of every sample, from the details line
    shares = []
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, cwd=ROOT)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        details = json.loads(lines[-2]) if len(lines) > 1 else {}
        for name, d in details.items():
            if isinstance(d, dict) and "median" in d:
                plain.setdefault(name, []).append(d["median"])
        if not result["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect outputs")
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    summary = {"workload": args.workload, "runs": args.runs,
               "seed_base": args.seed_base, "seconds": seconds,
               "failed_shares": sorted(set(shares)), "metrics": {}}
    print(f"\n{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        row = {"median": med, "q1": q1, "q3": q3,
               "iqr_share": (q3 - q1) / med, "range_share": (max(v) - min(v)) / med,
               "bound": bounds[name], "values": v}
        summary["metrics"][name] = row
        print(f"{name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{row['iqr_share']:8.4f} {row['range_share']:8.4f} "
              f"{bounds[name]:6.3f}")
    for name, v in plain.items():
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        summary["metrics"][name]["plain_median"] = {
            "median": med, "q1": q1, "q3": q3, "values": v}
        print(f"{name + ' (plain)':16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med:8.4f} {(max(v) - min(v)) / med:8.4f}")
    print(f"failed share per run: {summary['failed_shares']}")
    out = os.path.join(ROOT, ".bench_run",
                       f"steady-{args.workload}-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"written to {os.path.relpath(out, ROOT)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness record for the simulator benchmark.

Runs the scored benchmark (--trace 0, no fault) on each workload with a
range of seeds, in SETS interleaved sets of the same code (set A seed 1,
set B seed 1, set A seed 2, ...), and prints, per set, metric and
workload, the median, the quartiles, and the quartile spread as a share
of the median. The second table compares each set's median with the
first's. Host facts head the report. Run from the repository root:

    python3 simbench/steadiness.py --seeds 10 --sets 2 --seconds 30 > simbench/STEADINESS.md
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["fleet256", "paper-npu-pim", "sessions-tiered", "disagg-traced"]


def run_once(workload, seed, seconds):
    cmd = ["bash", "simbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "gomaxprocs": min(2, os.cpu_count() or 1),
            "go": go, "os": platform.platform()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()

    results = {}  # (set, workload) -> [metrics dict]
    for seed in range(1, args.seeds + 1):
        for s in range(args.sets):
            for w in WORKLOADS:
                res = run_once(w, seed, args.seconds)
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed}: correctness check failed")
                results.setdefault((s, w), []).append(res["metrics"])
                sys.stderr.write(f"set {s} {w} seed {seed} done\n")

    print("## Host\n")
    for k, v in host_facts().items():
        print(f"- {k}: {v}")
    print(f"\n{args.sets} interleaved sets, seeds 1..{args.seeds}, --seconds {args.seconds}\n")
    print("| workload | metric | set | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|")
    medians = {}
    for w in WORKLOADS:
        names = sorted(results[(0, w)][0].keys())
        for name in names:
            for s in range(args.sets):
                vals = [m[name]["value"] for m in results[(s, w)]]
                med, q1, q3, rel = spread(vals)
                medians[(w, name, s)] = med
                print(f"| {w} | {name} | {chr(65 + s)} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.4f} |")
    if args.sets > 1:
        print("\n| workload | metric | median B/A - 1 |")
        print("|---|---|---|")
        for w in WORKLOADS:
            for name in sorted(results[(0, w)][0].keys()):
                a, b = medians[(w, name, 0)], medians[(w, name, 1)]
                print(f"| {w} | {name} | {b / a - 1:+.4f} |")


if __name__ == "__main__":
    main()

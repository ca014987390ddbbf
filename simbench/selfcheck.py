#!/usr/bin/env python3
"""Sensitivity self-check for the simulator benchmark.

For each fault target (router, backend, stream, control) the benchmark's
--inject flag adds a fixed busy-wait to every call through that layer's
wrapper. The check runs the layer's dominant workload and a workload
that bypasses the layer, each with and without the fault, on the same
seeds, and compares median req_per_s:

- on the dominant workload it must drop by more than the req_per_s bound
  in BENCHMARK.json: the benchmark sees a slower layer;
- on the bypass workload it must stay within the bound: the benchmark
  does not charge one layer's cost to another.

Both sides go through the internal-path build with the same wrapper
installed; the baseline arms it with a zero-length fault (layer:0s), so
the two differ only by the delay. Run from the repository root; prints
host facts and a markdown table, and exits 1 if any row fails.

    python3 simbench/selfcheck.py --seconds 8 --seeds 2 > simbench/SELFCHECK.md
"""

import argparse
import json
import statistics
import subprocess
import sys

from steadiness import host_facts

# layer -> (fault, dominant workload, bypass workload). Delays are sized
# so the fault adds roughly half of a dominant run's host time.
CASES = [
    ("router", "router:20us", "fleet256", "paper-npu-pim"),
    ("backend (astra)", "backend:200us", "paper-npu-pim", "fleet256"),
    ("stream", "stream:100us", "sessions-tiered", "paper-npu-pim"),
    ("control", "control:5ms", "disagg-traced", "fleet256"),
]


def req_per_s(workload, seed, seconds, inject):
    cmd = ["bash", "simbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    return json.loads(lines[-1])["metrics"]["req_per_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--seeds", type=int, default=2)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "req_per_s")

    print("## Host\n")
    for k, v in host_facts().items():
        print(f"- {k}: {v}")
    print(f"\nreq_per_s bound {bound}; seeds 1..{args.seeds}; --seconds {args.seconds}\n")
    print("| layer | fault | workload | role | base req/s | faulted req/s | drop | pass |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for layer, fault, dominant, bypass in CASES:
        zero = fault.split(":")[0] + ":0s"
        for workload, role in ((dominant, "dominant"), (bypass, "bypass")):
            base, hurt = [], []
            for seed in range(1, args.seeds + 1):
                # Alternate which side runs first so drift cancels.
                if seed % 2:
                    base.append(req_per_s(workload, seed, args.seconds, zero))
                    hurt.append(req_per_s(workload, seed, args.seconds, fault))
                else:
                    hurt.append(req_per_s(workload, seed, args.seconds, fault))
                    base.append(req_per_s(workload, seed, args.seconds, zero))
            b, h = statistics.median(base), statistics.median(hurt)
            drop = 1 - h / b
            passed = drop > bound if role == "dominant" else abs(drop) < bound
            ok = ok and passed
            print(f"| {layer} | {fault} | {workload} | {role} | {b:.6g} | {h:.6g} | {drop:+.3f} | {'yes' if passed else 'NO'} |")
            sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise the spread of every metric.

Run from the root of the repository:

    python3 perfbench/repeat.py --reps 10 --seconds 10

Each repetition runs every chosen workload once, alternating between
workloads, with seed `repetition + 1`. For every end-to-end metric it
prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance
as a share of the median, next to the bound from BENCHMARK.json. It also
runs `tpca-engine` a second time on seed 1 and checks that `sim_tps` and
`write_amp`, which come from the deterministic simulator, repeat exactly.
It prints only; it writes no file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{proc.stderr}")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(names))
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for rep in range(args.reps):
        for w in workloads:
            r = run_once(spec["command"], w, rep + 1, args.seconds)
            runs[w].append(r)
            print(f"rep {rep + 1}/{args.reps} {w} seed {rep + 1}: attempted "
                  f"{r['attempted']} failed {r['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}: {len(runs[w])} runs")
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        for name in runs[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name]
            worst = max(worst, spread / bound)
            unit = runs[w][0]["metrics"][name]["unit"]
            print(f"  {name:<24} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.2%} {bound:>6} {unit}")
        print(f"  failed share per run: {sorted(shares)}")

    if "tpca-engine" in workloads:
        again = run_once(spec["command"], "tpca-engine", 1, args.seconds)
        first = runs["tpca-engine"][0]["metrics"]
        for name in ("sim_tps", "write_amp"):
            a, b = first[name]["value"], again["metrics"][name]["value"]
            if a != b:
                sys.exit(f"tpca-engine {name} did not repeat on seed 1: "
                         f"{a} then {b}")
        print("\ntpca-engine sim_tps and write_amp repeat exactly on seed 1")
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound. A metric whose spread is wider than its bound is flagged.

Run from the root of the repository:

    python3 perfbench/steadiness.py                       # 10 seeds, every workload
    python3 perfbench/steadiness.py --seeds 5 --workload paper-p100
    python3 perfbench/steadiness.py --out perfbench/STEADINESS.md

Seeds are 1..N. Seed 1 then runs a second time on each workload, and the
report says whether the deterministic metrics (sim_*,
host_allocs_per_launch) repeated exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

DETERMINISTIC = (
    "sim_launches_per_s",
    "sim_request_us_p50",
    "sim_request_us_p90",
    "sim_speedup_vs_serial",
    "host_allocs_per_launch",
)


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect outputs\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread_rows(bench, workload, runs):
    rows = []
    for m in bench["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "WIDE" if spread > m["bound"] else ""
        rows.append((workload, m["name"], m["unit"], med, q1, q3, spread, m["bound"], flag))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    lines = [
        "| workload | metric | unit | median | q1 | q3 | spread | bound | |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    wide = 0
    for w in workloads:
        start = time.time()
        runs = [run_once(bench, w, s) for s in range(1, args.seeds + 1)]
        for row in spread_rows(bench, w, runs):
            wk, name, unit, med, q1, q3, spread, bound, flag = row
            wide += bool(flag)
            lines.append(
                f"| {wk} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {spread:.4f} | {bound} | {flag} |"
            )
        print(f"{w}: {len(runs)} runs in {time.time() - start:.0f} s", file=sys.stderr)
        again = run_once(bench, w, 1)
        same = all(again[k] == runs[0][k] for k in DETERMINISTIC)
        lines.append(f"| {w} | deterministic metrics repeat for seed 1 | | | | | | | {'yes' if same else 'NO'} |")

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload
(each run with its own --seed), then prints, per workload and metric, the
median, the first and third quartile (statistics.quantiles(n=4)) and the
spread: (Q3 - Q1) / median. Spreads are compared with each metric's bound
from BENCHMARK.json (`setup_s` excepted, as the contract does); a spread
above a third of its bound is flagged, above the bound is a failure.
With --sets 2 the whole series runs twice and the second set's medians
must not be worse than the first's by more than the bound.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs x every workload
    python3 perfbench/steady.py --runs 5 --workloads burst_ingest
    python3 perfbench/steady.py --trace 1 --runs 3   # per-layer medians
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return result, wall


def worse(metric, first, second):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    declared = {m["name"]: m for m in bench["end_to_end"]}
    if args.trace:
        declared = {m["name"]: m for m in bench["per_layer"]}

    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            values = {}
            walls = []
            for k in range(args.runs):
                seed = args.first_seed + s * args.runs + k
                result, wall = run_once(bench["command"], workload, seed, seconds, args.trace)
                walls.append(wall)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            missing = sorted(set(declared) - set(values))
            if missing:
                print(f"{workload}: missing metrics {missing}")
                ok = False
            print(f"\n== {workload} (set {s + 1}, {args.runs} runs, seeds "
                  f"{args.first_seed + s * args.runs}..{args.first_seed + (s + 1) * args.runs - 1}, "
                  f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
            print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            meds = {}
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else float("inf")
                meds[name] = med
                bound = declared.get(name, {}).get("bound")
                flag = ""
                if bound is not None and name != "setup_s":
                    if spread > bound:
                        flag = "  FAIL"
                        ok = False
                    elif spread > bound / 3:
                        flag = "  wide"
                print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                      f"{bound if bound is not None else '':>6}{flag}")
            medians.append(meds)
        if args.sets == 2:
            print(f"  second set against first:")
            for name, m in declared.items():
                if "bound" not in m or name not in medians[0]:
                    continue
                w = worse(m, medians[0][name], medians[1][name])
                flag = "  FAIL" if w > m["bound"] else ""
                ok &= not flag
                print(f"  {name:<32} worse by {w:+.4f} (bound {m['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

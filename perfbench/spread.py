#!/usr/bin/env python3
"""Spread study: runs each workload in two sets of seeds and writes, per
set and end-to-end metric, the median, the quartiles and the quartile
spread (IQR / median), and how far the two sets' medians lie apart,
next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1] [--json FILE]

Run it from the repository root. Set A takes seeds first-seed ..
first-seed + runs - 1, set B the next `runs` seeds. The two sets' runs
alternate (A1, B1, A2, B2, ...), so that slow phases of the host that
last minutes fall on both sets. Quartiles are those of Python's
`statistics.quantiles(values, n=4)`. The sets agree on a metric when
max(B / A, A / B) - 1 of their medians is within the metric's bound,
whichever set is taken as the baseline.
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
SETS = ("A", "B")
ABOUT = (
    "Spread study behind the bounds in BENCHMARK.json, written by perfbench/spread.py: two sets of "
    "untraced runs per workload, each run with its own seed and run_seconds long, the two sets' runs "
    "alternating. spread = (q3 - q1) / median with statistics.quantiles(values, n=4); steady means "
    "spread <= bound / 3. shift = max(B / A, A / B) - 1 of the two sets' medians, so it does not "
    "depend on which set is the baseline; within_bound means shift <= bound and, except for setup_s, "
    "both spreads <= bound."
)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} is not correct: {lines[-1]}")
    return result, json.loads(lines[0])["stamp"]


def quartiles(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": round(spread, 4), "bound": bound,
            "steady": spread <= bound / 3}


def agreement(name, a, b, bound):
    shift = max(b["median"] / a["median"], a["median"] / b["median"]) - 1
    spreads_ok = name == "setup_s" or (a["spread"] <= bound and b["spread"] <= bound)
    return {"median_a": a["median"], "median_b": b["median"], "shift": round(shift, 4),
            "bound": bound, "within_bound": shift <= bound and spreads_ok}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = {s: [args.first_seed + k * args.runs + i for i in range(args.runs)] for k, s in enumerate(SETS)}
    sets = {s: {} for s in SETS}
    agree = {}
    stamp = None
    for workload in workloads:
        values = {s: {name: [] for name in bounds} for s in SETS}
        started = time.time()
        for i in range(args.runs):
            for s in SETS:
                result, stamp = run_once(workload, seeds[s][i], bench["run_seconds"])
                for name in bounds:
                    values[s][name].append(result["metrics"][name]["value"])
                print(f"{workload} set {s} seed {seeds[s][i]}: wall_s {result['metrics']['wall_s']['value']:.4f} "
                      f"cpu_s {result['metrics']['cpu_s']['value']:.4f}", file=sys.stderr, flush=True)
        for s in SETS:
            sets[s][workload] = {name: quartiles(vals, bounds[name]) for name, vals in values[s].items()}
        agree[workload] = {}
        for name in bounds:
            a, b = sets["A"][workload][name], sets["B"][workload][name]
            agree[workload][name] = row = agreement(name, a, b, bounds[name])
            print(f"{workload:16} {name:13} median A {a['median']:<11.6g} B {b['median']:<11.6g} "
                  f"spread A {a['spread']:.4f} B {b['spread']:.4f} shift {row['shift']:.4f} "
                  f"bound {bounds[name]} {'ok' if row['within_bound'] else 'OUT OF BOUND'}", flush=True)
        print(f"{workload}: {2 * args.runs} runs in {time.time() - started:.0f} s", flush=True)
    if args.json:
        doc = {"about": ABOUT, "stamp": {k: stamp[k] for k in ("nproc", "commit", "rustc")},
               "run_seconds": bench["run_seconds"],
               "sets": [{"name": s, "seeds": [seeds[s][0], seeds[s][-1]], "workloads": sets[s]} for s in SETS],
               "agreement": agree}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()

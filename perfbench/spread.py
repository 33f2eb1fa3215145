#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
reports each metric's median, quartiles and spread (quartile distance as
a share of the median). With --trace, also one traced run per workload.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--trace] [--json OUT] [--label TEXT]

Run from the repository root; the command comes from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json")
    p.add_argument("--label", default="")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": a.label, "nproc": os.cpu_count(), "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            result = run(spec["command"], workload, seed, spec["run_seconds"], False)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed trial(s)")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = report["workloads"].setdefault(workload, {"end_to_end": {}})["end_to_end"]
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "runs": len(vals)}
            print(f"{workload:<16} {name:<14} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {(q3 - q1) / median:.4f} (bound {bounds[name]})")
        if a.trace:
            traced = run(spec["command"], workload, a.first_seed, spec["run_seconds"], True)
            report["workloads"][workload]["per_layer"] = {
                n: m["value"] for n, m in traced["metrics"].items()}
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()

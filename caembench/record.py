#!/usr/bin/env python3
"""Measure the caem benchmark's baseline and record it in caembench/RECORD.json.

    python3 caembench/record.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads a,b] [--traced] [--second-set] [--out FILE]

Runs every workload --runs times with the timed run (--trace 0), each time
with another seed, and records for each end-to-end metric the median, the
quartiles and the spread (distance between the quartiles as a share of the
median) beside the context: git sha, nproc, build type, seeds and sample
counts.  With --traced it also records one traced run (--trace 1) per
workload at seed 2005.  With --second-set it records a repeat set of the
same code under "second_set" instead, with each median's change against
the first set's (use another --first-seed).  Takes runs x workloads x
(run_seconds + ~5 s).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s seed %d trace %d\n%s" % (workload, seed, trace, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--second-set", action="store_true")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "RECORD.json"))
    args = parser.parse_args()

    record_path = args.out
    record = {}
    if os.path.exists(record_path):
        with open(record_path) as handle:
            record = json.load(handle)
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or "unknown"
    context = {"git_sha": sha, "nproc": os.cpu_count(), "build_type": "Release",
               "run_seconds": args.seconds}
    if args.second_set:
        second = record.setdefault("second_set", {})
        second["about"] = (
            "A second set of the same code, measured after the first: each spread must stay "
            "within its bound, and each median may not be worse than the first set's by more "
            "than the bound (change_vs_first).")
        second["context"] = context
        second.setdefault("workloads", {})
    else:
        record["context"] = context
        record.setdefault("workloads", {})
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    why = {w["name"]: w["why"] for w in config["workloads"]}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            results.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, {k: v["value"] for k, v in results[-1]["metrics"].items()},
                  flush=True)
        entry = {"why": why[workload], "seeds": seeds,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "n": len(values),
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "bound": bounds[name],
                "values": values}
        if args.second_set:
            first = record["workloads"][workload]["end_to_end"]
            record["second_set"]["seeds"] = seeds
            record["second_set"]["workloads"][workload] = {
                name: {key: stats[key] for key in ("median", "spread", "values")} | {
                    "change_vs_first": stats["median"] / first[name]["median"] - 1.0}
                for name, stats in entry["end_to_end"].items()}
        elif args.traced:
            traced = run(workload, 2005, args.seconds, 1)
            entry["per_layer_seed_2005"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
        if not args.second_set:
            record["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print("%-16s %-14s median %.6g spread %.3f (bound %.2f)" % (
                workload, name, stats["median"], stats["spread"], stats["bound"]), flush=True)
        with open(record_path, "w") as handle:  # after each workload: a cut run keeps the rest
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()

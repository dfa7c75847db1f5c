#!/usr/bin/env python3
"""The caem benchmark: one workload per invocation.

    python3 caembench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the `caembench` binary (and the
`caem` library it links) from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build), runs one workload for --seconds, checks its
outputs, prints a human-readable report on stderr and, as the last line
of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics (tracing off);
--trace 1 reports its per_layer metrics from a separate traced run and
writes that run's spans to <build dir>/results/.  Workloads, metrics and
the reason for each are listed in BENCHMARK.json and caembench/README.md.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEADLINE_S = 170.0

# Per-layer metrics a workload cannot exercise: reported as 0 there.
# Anything else a run fails to measure is an error, never a silent 0.
_ROUTING_SERVICE = [
    "routing.plans", "routing.plan_ns", "routing.relay_hops", "routing.unreachable",
    "scenario.cache_store_us", "scenario.cache_load_us", "scenario.fold_render_ms",
    "scenario.stolen", "service.sweep_cold_p50_s", "service.sweep_warm_p50_s",
    "service.poll_p50_ms", "service.poll_p99_ms", "service.polls", "service.tail_ms",
    "service.handle_status_us", "service.handle_submit_us", "service.handle_artifact_us",
    "service.http_overhead_us", "service.janitor_sweep_ms",
]
IDLE = {
    "fig9_extinction": _ROUTING_SERVICE,
    "city_10k": _ROUTING_SERVICE + ["core.run_s.pure-leach", "core.run_s.caem-scheme2"],
    "serve_sweeps": [
        "sim.pending_peak", "sim.queue_ns_per_op", "core.run_s.pure-leach",
        "core.run_s.caem-scheme2", "core.setup_ms", "core.chunk_first_ms",
        "core.chunk_p50_ms", "core.finalize_ms",
    ],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("caembench: " + message)
    sys.exit(code)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-p * len(ordered) // 100))))
    return ordered[rank - 1]


def tail_percentile(n):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def summarize(values):
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    p = tail_percentile(len(values))
    if p is not None and p > 50:
        out["p%g" % p] = percentile(values, p)
    return out


def build(build_dir):
    """Configure (once) and build the binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)  # configure afresh next time
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        code = subprocess.call(["cmake", "--build", build_dir, "--target", "caembench", "-j", jobs],
                               stdout=out, stderr=subprocess.STDOUT)
    binary = os.path.join(build_dir, "caembench")
    return (binary if code == 0 and os.path.exists(binary) else None), log_path


def git_sha():
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def self_times(spans_path):
    """Total and self time per span name (self = duration minus the part of
    it that child spans cover)."""
    with open(spans_path) as handle:
        spans = [s for s in json.load(handle)["spans"] if s["end_ns"] >= 0]
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    table = {}
    for span in spans:
        covered, cursor = 0, span["start_ns"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start_ns"]):
            start, end = max(child["start_ns"], cursor), min(child["end_ns"], span["end_ns"])
            if end > start:
                covered += end - start
                cursor = end
        total = span["end_ns"] - span["start_ns"]
        entry = table.setdefault(span["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += total / 1e6
        entry["self_ms"] += (total - covered) / 1e6
    return table


def fold_metrics(definitions, workload, raw, trace):
    """Turn the binary's raw samples (reported as their median) and single
    values into the named metrics; the binary records both under the
    metric names of BENCHMARK.json."""
    samples, values = raw["samples"], raw["values"]
    metrics, stats, missing = {}, {}, []
    for metric in definitions:
        name = metric["name"]
        if samples.get(name):
            stats[name] = summarize(samples[name])
            value = stats[name]["median"]
        elif name in values:
            value = values[name]
        elif trace and name in IDLE.get(workload, []):
            value = 0
        else:
            missing.append(name)
            continue
        if value is None:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, stats, missing


def describe(stats):
    tail = [k for k in stats if k.startswith("p")]
    return "median of %d%s" % (stats["n"], ", %s %.6g" % (tail[0], stats[tail[0]]) if tail else "")


def report(workload, args, metrics, stats, raw, spans_table, units):
    log("== caem benchmark: %s seed %d, %s run, %g s ==" % (
        workload, args.seed, "traced" if args.trace else "timed", args.seconds))
    for name, metric in metrics.items():
        log("  %-28s %14.6g %-6s %s" % (name, metric["value"], metric["unit"],
                                         "(%s)" % describe(stats[name]) if name in stats else ""))
    # Series measured beside the metrics: in the timed serve run, the
    # service latencies (per-layer metrics in BENCHMARK.json, which needs
    # every end-to-end metric on every workload).
    for name, series in sorted(raw["samples"].items()):
        if name not in metrics and series:
            s = summarize(series)
            log("  %-28s %14.6g %-6s (%s)" % (name, s["median"], units.get(name, ""), describe(s)))
    attempted, failed = raw["attempted"], raw["failed"]
    log("  %-28s %14.6g (%d failed of %d attempted)" % (
        "failed_frac", failed / attempted if attempted else 1.0, failed, attempted))
    for failure in raw["failures"]:
        log("  FAILED: " + failure)
    for name, note in sorted(raw["notes"].items()):
        log("  note %s: %s" % (name, note))
    if spans_table:
        log("  spans by self time (ms):")
        ranked = sorted(spans_table.items(), key=lambda kv: -kv[1]["self_ms"])
        for name, entry in ranked[:12]:
            log("    %-34s n=%-7d self %10.1f  total %10.1f" % (
                name, entry["count"], entry["self_ms"], entry["total_ms"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="print the RunResult fingerprints of this run on stderr")
    args = parser.parse_args()

    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no caem sources in %s (expected CMakeLists.txt and src/)" % ROOT)
    with open(config_path) as handle:
        config = json.load(handle)
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])
    workloads = {w["name"]: w for w in config["workloads"]}
    if args.workload not in workloads:
        fail("unknown workload '%s' (have: %s)" % (args.workload, ", ".join(workloads)))
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                  ".bench_build")))
    binary, build_log = build(build_dir)
    if binary is None:
        with open(build_log) as handle:
            log(handle.read()[-4000:])
        fail("build failed (log: %s)" % build_log)

    started = time.monotonic()  # the deadline excludes the (first) build
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    spans_path = os.path.join(results_dir, tag + ".spans.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--fingerprints", os.path.join(BENCH_DIR, "fingerprints.txt"),
               "--spans", spans_path]
    if args.record_fingerprints:
        command.append("--record-fingerprints")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %g s" % DEADLINE_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.returncode != 0:
        fail("caembench exited with code %d" % run.returncode)
    raw = json.loads(run.stdout.strip().splitlines()[-1])

    definitions = config["per_layer"] if args.trace else config["end_to_end"]
    metrics, stats, missing = fold_metrics(definitions, args.workload, raw, args.trace)
    if missing:
        fail("workload did not measure: " + ", ".join(missing), code=3)
    spans_table = self_times(spans_path) if args.trace and os.path.exists(spans_path) else None
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    report(args.workload, args, metrics, stats, raw, spans_table, units)

    record = {
        "workload": args.workload, "why": workloads[args.workload]["why"],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(), "machine": platform.machine(),
        "build_type": "Release", "attempted": raw["attempted"], "failed": raw["failed"],
        "failures": raw["failures"], "metrics": metrics, "samples": stats,
        "notes": raw["notes"], "spans": spans_table,
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

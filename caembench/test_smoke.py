#!/usr/bin/env python3
"""Smoke self-test of the caem benchmark.

    python3 caembench/test_smoke.py

Runs every workload briefly, timed and traced, and asserts that each
metric BENCHMARK.json names is emitted with its unit and that the output
checks ran.  Also checks that a wrong recorded fingerprint is caught and
that the benchmark refuses to run without the program's sources or its
recorded fingerprints.
Takes about two minutes after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONFIG = json.load(handle)


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "caembench", "run.py"), "--workload", workload,
         "--seed", "2005", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in CONFIG["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    run = run_bench(ROOT, workload["name"], trace)
                    self.assertEqual(run.returncode, 0, run.stderr[-3000:])
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], run.stderr[-3000:])
                    self.assertGreaterEqual(result["attempted"], 1)  # output checks ran
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("failed_frac", run.stderr)
                    expected = {m["name"]: m["unit"] for m in CONFIG[kind]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if kind == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def run_binary(self, workload, fingerprint_lines):
        """One short timed run of the built binary against the given
        fingerprint lines (None: no fingerprints file at all)."""
        fingerprints = os.path.join(BUILD_DIR, "smoke-fingerprints.txt")
        if fingerprint_lines is not None:
            with open(fingerprints, "w") as handle:
                handle.writelines(line + "\n" for line in fingerprint_lines)
        try:
            return subprocess.run(
                [os.path.join(BUILD_DIR, "caembench"), "--workload", workload, "--seed", "2005",
                 "--seconds", "0.1", "--trace", "0", "--fingerprints", fingerprints,
                 "--work-dir", os.path.join(BUILD_DIR, "smoke-work")],
                capture_output=True, text=True, timeout=300)
        finally:
            if os.path.exists(fingerprints):
                os.remove(fingerprints)
            shutil.rmtree(os.path.join(BUILD_DIR, "smoke-work"), ignore_errors=True)

    def test_a_changed_run_result_is_counted_as_failed(self):
        run = self.run_binary("city_10k", ["city_10k caem-scheme1 2005 0000000000000000"])
        self.assertEqual(run.returncode, 0, run.stderr)
        raw = json.loads(run.stdout.strip().splitlines()[-1])
        self.assertEqual(raw["failed"], 1)
        self.assertIn("fingerprint", raw["failures"][0])

    def test_a_default_seed_run_without_a_fingerprint_is_counted_as_failed(self):
        run = self.run_binary("fig9_extinction", ["city_10k caem-scheme1 2005 0000000000000000"])
        self.assertEqual(run.returncode, 0, run.stderr)
        raw = json.loads(run.stdout.strip().splitlines()[-1])
        self.assertEqual(raw["failed"], 3)  # the trio at seed 2005
        self.assertIn("no RunResult fingerprint recorded", raw["failures"][0])

    def test_a_missing_or_empty_fingerprints_file_gives_no_result(self):
        for lines in (None, ["# no entries"]):
            with self.subTest(lines=lines):
                run = self.run_binary("fig9_extinction", lines)
                self.assertNotEqual(run.returncode, 0)
                self.assertEqual(run.stdout.strip(), "")
                self.assertIn("fingerprints", run.stderr)

    def test_refuses_to_run_without_the_program_sources(self):
        bare = os.path.join(BUILD_DIR, "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "caembench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            run = run_bench(bare, CONFIG["workloads"][0]["name"], 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(run.returncode, 0)
        self.assertEqual(run.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

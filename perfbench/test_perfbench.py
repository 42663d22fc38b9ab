#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at its tiny size (--tiny).

Run from anywhere:  python3 perfbench/test_perfbench.py

Checks, on every workload perfbench_e2e knows:
  * every metric BENCHMARK.json names is printed as "metric NAME = VALUE UNIT"
    with its unit, and is the whole metrics object of the JSON result
    (end-to-end metrics with --trace 0, per-layer metrics with --trace 1);
  * the verdict oracle passes: correct is true and no interval failed;
  * the same seed generates the same inputs, another seed other inputs;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-inorder", "blob-storm", "hostile-delivery"]
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def fingerprint(stdout):
    match = re.search(r"fingerprint=([0-9a-f]+)", stdout)
    return match.group(1) if match else None


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_run(self, workload, trace):
        out = run(workload, 7, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        printed = {}
        for line in lines:
            match = METRIC_LINE.match(line)
            if match:
                printed[match.group(1)] = match.group(3)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return out.stdout

    def test_end_to_end_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_per_layer_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)

    def test_inputs_follow_the_seed(self):
        first = fingerprint(run("hostile-delivery", 3, 0).stdout)
        again = fingerprint(run("hostile-delivery", 3, 0).stdout)
        other = fingerprint(run("hostile-delivery", 4, 0).stdout)
        self.assertIsNotNone(first)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("fleet-inorder", 1, 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()

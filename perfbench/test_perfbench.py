#!/usr/bin/env python3
"""Test of the benchmark itself, at toy size (about two minutes).

    python3 perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
in the report and in the JSON result line; that a fit forced to fail a check
is counted in fail_ratio and makes the command exit non-zero; and that the
benchmark refuses to run without the library sources.
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
WORKLOADS = ["planted-n3", "movielens-n4-cache", "approx-n3-j8"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_value(stdout, name, unit):
    """The value a report line prints for `name`, which must carry `unit`."""
    m = re.search(r"^\s+%s\s+(\S+)\s+%s\s+\(n=\d+\)$" % (re.escape(name), re.escape(unit)),
                  stdout, re.MULTILINE)
    return None if m is None else float(m.group(1))


class BenchmarkTest(unittest.TestCase):

    def assert_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsNotNone(report_value(proc.stdout, m["name"], m["unit"]), m["name"])

    def test_end_to_end_metrics(self):
        proc = bench("planted-n3", 0)
        self.assert_metrics(proc, SPEC["end_to_end"])
        self.assertEqual(report_value(proc.stdout, "fail_ratio", "ratio"), 0.0)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_metrics(bench(w, 1), SPEC["per_layer"])

    def test_failed_check_counts_and_exits_non_zero(self):
        proc = bench("planted-n3", 0, "--inject-fault")
        self.assertNotEqual(proc.returncode, 0)
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("REJECTED: recomputed error", proc.stdout)
        self.assertAlmostEqual(report_value(proc.stdout, "fail_ratio", "ratio"),
                               res["failed"] / res["attempted"], places=5)

    def test_refuses_without_library_sources(self):
        build_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            proc = bench("planted-n3", 0, cwd=d)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip().startswith("{"))


if __name__ == "__main__":
    unittest.main()

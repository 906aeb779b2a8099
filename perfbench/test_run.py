#!/usr/bin/env python3
"""Smoke test: run.py at tiny scale prints every metric BENCHMARK.json names.

    python3 perfbench/test_run.py        (from the repository root)

Runs each workload once untraced and once traced with --tiny and fails if
the result line is malformed, a check failed, or any named metric or its
unit is missing or different.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["mutator", "gc", "sweep"])
        for workload in names:
            with self.subTest(workload=workload):
                self.check(run(workload, 0), SPEC["end_to_end"])
                self.check(run(workload, 1), SPEC["per_layer"])

    def test_unknown_workload_fails_without_a_result(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

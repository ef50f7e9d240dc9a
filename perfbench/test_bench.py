#!/usr/bin/env python3
"""Tests of the fsoi-sim benchmark itself.

Run from the repository root (builds the benchmark program on first use):

    python3 perfbench/test_bench.py

Checks that the metric names in BENCHMARK.json are well formed, and
that every workload passes a short smoke run at tiny scale in both
modes, with its correctness checks on. Each run must print a parsable
result whose metric names are exactly those of BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_present(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"]
                                               for m in SPEC["end_to_end"])}])


class SmokeRuns(unittest.TestCase):
    def check(self, result, key):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], 0)
                self.check(result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(run(w["name"], 1), "per_layer")


if __name__ == "__main__":
    unittest.main()

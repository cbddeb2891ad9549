#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/test_determinism.py

Runs each workload twice with the same seed in small mode (--small: a few
hundred actions) and checks that

- on `twophase` and `restart`, the regression-gate counts repeat exactly:
  log.bytes_per_action, log.forces_per_action, recovery.entries_examined,
  stable.read_mb_per_restart, residency.reads_per_fault and space_amp;
- on `commit`, whose forces depend on thread timing, both runs force the same
  bytes (log.bytes_per_action over the same number of actions);
- every metric BENCHMARK.json names is printed, in the JSON result and in a
  human-readable line, with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

GATE_COUNTS = [
    "log.bytes_per_action",
    "log.forces_per_action",
    "recovery.entries_examined",
    "stable.read_mb_per_restart",
    "residency.reads_per_fault",
]


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").splitlines()
    return json.loads(lines[-1]), lines


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {}
        for workload in ("commit", "twophase", "restart"):
            for trace in (0, 1):
                cls.results[(workload, trace)] = [run(workload, trace), run(workload, trace)]

    def assert_prints_every_metric(self, result, lines, section):
        for metric in self.spec[section]:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, result["metrics"])
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(
                any(line.split()[:2] == ["metric", name] and line.split()[3] == unit
                    for line in lines if line.startswith("metric ")),
                "no human-readable line for %s [%s]" % (name, unit))

    def test_every_run_is_correct_and_prints_every_metric(self):
        for (workload, trace), runs in self.results.items():
            section = "per_layer" if trace else "end_to_end"
            for result, lines in runs:
                with self.subTest(workload=workload, trace=trace):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assert_prints_every_metric(result, lines, section)

    def test_gate_counts_repeat_exactly(self):
        for workload in ("twophase", "restart"):
            (first, _), (second, _) = self.results[(workload, 1)]
            for name in GATE_COUNTS:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"])
            (first, _), (second, _) = self.results[(workload, 0)]
            with self.subTest(workload=workload, metric="space_amp"):
                self.assertEqual(first["metrics"]["space_amp"]["value"],
                                 second["metrics"]["space_amp"]["value"])

    def test_commit_forces_the_same_bytes(self):
        (first, _), (second, _) = self.results[("commit", 1)]
        self.assertEqual(first["metrics"]["log.bytes_per_action"]["value"],
                         second["metrics"]["log.bytes_per_action"]["value"])
        self.assertGreater(first["metrics"]["log.bytes_per_action"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, traced and untraced, in
its tiny --smoke size. Asserts that the run passes its own correctness
checks and that the result line names exactly the metrics BENCHMARK.json
declares, each with its declared unit.

Run from the repository root:

    python3 perfbench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        declared = spec["per_layer" if trace else "end_to_end"]
        code, result, done = run_smoke(workload, trace)
        self.assertIsNotNone(result, done.stderr)
        self.assertEqual(code, 0, done.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload(self):
        for workload in [w["name"] for w in load_spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_no_scratch_left_behind(self):
        self.assertFalse(os.path.exists(os.path.join(ROOT, ".bench_tmp")))


if __name__ == "__main__":
    unittest.main()

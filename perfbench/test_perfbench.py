#!/usr/bin/env python3
"""Tests of the repository benchmark itself (see perfbench/README.md).

    python3 perfbench/test_perfbench.py

Runs every workload at the tiny smoke size through run.py and checks that
each end-to-end and per-layer metric of BENCHMARK.json is printed with its
unit, that the run is correct, and that the exact per-layer counters repeat
bit for bit across two traced runs at one seed and differ at another seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counters that are a pure function of the seed (no timing, no thread
# interleaving, no cache state shared between workers).
EXACT = ("core.checks_per_answer", "db.snapshot_pages_written",
         "storage.wal_page_writes_per_mutation", "shard.net_bytes_per_batch",
         "exec.overlay_sensitive_frac")


def tiny_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s failed (%d): %s" %
                             (" ".join(cmd), done.returncode, done.stderr[-3000:]))
    return done.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = tiny_run(workload, 7, 0)
                self.check_metrics(json.loads(lines[-1]), SPEC["end_to_end"])
                self.assertTrue(any(l.startswith("PROVENANCE ") for l in lines))
                lines = tiny_run(workload, 7, 1)
                self.check_metrics(json.loads(lines[-1]), SPEC["per_layer"])
                traced = [l for l in lines if l.startswith("TRACED_E2E ")]
                self.assertEqual(sorted(json.loads(traced[0][11:])),
                                 sorted(m["name"] for m in SPEC["end_to_end"]))


class DeterminismTest(unittest.TestCase):
    def counters(self, workload, seed):
        metrics = json.loads(tiny_run(workload, seed, 1)[-1])["metrics"]
        return {k: metrics[k]["value"] for k in EXACT}

    def test_exact_counters_repeat_and_follow_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.counters(workload, 11)
                self.assertEqual(first, self.counters(workload, 11))
                self.assertNotEqual(first, self.counters(workload, 12))

if __name__ == "__main__":
    unittest.main()

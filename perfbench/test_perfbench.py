#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_perfbench.py

Runs a short leg of every workload, traced and untraced, and checks
that every metric BENCHMARK.json names is printed with its unit and
that the run's checks pass. A deliberately wrong expected shard
fingerprint, and a tree without the allocator sources, must both make
the run fail.
"""
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SpecTest(unittest.TestCase):
    def test_workloads_agree(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(SPEC["workloads"]))

    def test_every_metric_is_defined(self):
        defined = set(SPEC["metrics"])
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            name = m["name"]
            if name.startswith("trace_overhead."):
                name = "trace_overhead.*"
            self.assertIn(name, defined)

    def test_predictions_name_known_metrics(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        layer = {m["name"] for m in BENCH["per_layer"]}
        for p in SPEC["predictions"]:
            self.assertTrue(set(p["layer"]) <= layer, p["layer"])
            for workload, moved in p["moves"].items():
                self.assertIn(workload, SPEC["workloads"])
                self.assertTrue(set(moved) <= e2e, moved)


class ShortLegTest(unittest.TestCase):
    def check_leg(self, workload, trace):
        done = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
            printed = [l for l in lines[:-1] if l.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0].split()[-1], m["unit"], m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_leg(workload, trace)

    def test_wrong_expected_fingerprint_fails(self):
        done = run("--workload", "server_burst", "--seed", "3", "--seconds",
                   "1", "--corrupt-expected-fingerprint")
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("shard_replay", done.stderr)
        self.assertIs(json.loads(done.stdout.strip().splitlines()[-1])
                      ["correct"], False)

    def test_tree_without_sources_fails(self):
        bare = ROOT / ".bench_build" / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("--workload", "churn_defer", "--seed", "1",
                       "--seconds", "1", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

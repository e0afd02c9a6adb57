#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root; each case goes through perfbench/run.py, so
the first one builds the benchmark. Checks that one seed gives the same
simulated digest twice, that another seed changes the generated inputs,
that the result line carries exactly the metrics BENCHMARK.json declares,
and that a checkout without the simulator sources fails without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace=0, root=ROOT):
    """Run one short benchmark; returns (exit code, digest, result)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=root,
        timeout=600)
    lines = proc.stdout.splitlines()
    digest = next((l for l in lines if l.startswith("digest ")), None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, digest, result


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest_new_seed_new_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, digest_a, result_a = run(workload, 101)
                code_b, digest_b, _ = run(workload, 101)
                code_c, digest_c, _ = run(workload, 102)
                self.assertEqual((code_a, code_b, code_c), (0, 0, 0))
                self.assertTrue(result_a["correct"])
                self.assertEqual(result_a["failed"], 0)
                self.assertIsNotNone(digest_a)
                self.assertEqual(digest_a, digest_b)
                self.assertNotEqual(digest_a, digest_c)


class ResultLine(unittest.TestCase):
    def check(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, _, result = run(workload, 103, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                if not trace:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class StrippedCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        stripped = ROOT / ".bench_build" / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(HERE, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, _, result = run(WORKLOADS[0], 1, root=stripped)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

Short variants of every workload must print every metric BENCHMARK.json
names, with its unit, in the JSON result and in the table. The oracle must
reject a reply with one flipped logit bit. A directory without the library
sources must fail without printing a result.

    python3 servebench/tests/test_servebench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
ALL_WORKLOADS = ("ht_bulk", "ha_burst", "fleet_failover")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class ServebenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def test_oracle_rejects_flipped_bit(self):
        proc = run(["--selftest"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("selftest OK", proc.stdout)

    def test_short_runs_print_every_metric_with_unit(self):
        gated = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(set(gated) <= set(ALL_WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in ALL_WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run(["--workload", workload, "--seed", "3",
                                "--seconds", "2", "--trace", str(trace)])
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    table = "\n".join(lines[:-1])
                    for name, unit in expected.items():
                        self.assertRegex(table, r"(?m)^%s +\S+ %s$" %
                                         (re.escape(name), re.escape(unit)))

    def test_fails_without_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "selftest_no_sources")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(SPEC, scratch)
            shutil.copytree(BENCH, os.path.join(scratch, "servebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload",
                 "ha_burst", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the steadiness arithmetic and of BENCHMARK.json's format.

    PERFBENCH_BIN=.bench_build/perfbench/perfbench python3 perfbench/test_steady.py
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import steady  # noqa: E402

BIN = os.environ.get("PERFBENCH_BIN",
                     os.path.join(ROOT, ".bench_build", "perfbench",
                                  "perfbench"))


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = list(range(1, 11))
        # exclusive method: Q1 = 2.75, median 5.5, Q3 = 8.25
        self.assertEqual(statistics.quantiles(vals, n=4), [2.75, 5.5, 8.25])
        self.assertAlmostEqual(steady.quartile_spread(vals), 1.0)

    def test_order_does_not_matter(self):
        a = [10.2, 9.8, 10.0, 10.1, 9.9, 10.4, 9.7, 10.0, 10.3, 9.6]
        self.assertAlmostEqual(steady.quartile_spread(a),
                               steady.quartile_spread(sorted(a)))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.quartile_spread([3.0] * 10), 0.0)

    def test_seed_ranges(self):
        self.assertEqual(steady.parse_seeds("1-3,7"), [1, 2, 3, 7])
        self.assertEqual(steady.parse_seeds("5"), [5])


class ParseRun(unittest.TestCase):
    def test_reads_the_compared_lines(self):
        out = "\n".join([
            "workload sw-small  seed 1  clients 1  seconds 20  plan 9 "
            "requests  digest 00ff",
            "deterministic: ratio=3.5 modelled_gbps=0.000000",
            "counters: session.fallbacks=0 job_server.busy_rejects=2",
            '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}',
        ])
        r = steady.parse_run(out)
        self.assertEqual(r["busy_rejects"], 2)
        self.assertEqual(r["fallbacks"], 0)
        self.assertNotIn("seconds", r["digest"])
        self.assertTrue(r["result"]["correct"])


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        out = subprocess.run([BIN, "--list"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        cls.program = json.loads(out)

    def test_keys(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})

    def test_workloads_exist(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, self.program["workloads"])
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics_match_the_program(self):
        for key in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.bench[key]]
            emitted = [(m["name"], m["unit"], m["better"])
                       for m in self.program[key]]
            self.assertEqual(declared, emitted, key)

    def test_names_and_units_follow_the_format(self):
        name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                self.assertRegex(m["name"], name_re)
                self.assertRegex(m["unit"], unit_re)
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in self.bench["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))


if __name__ == "__main__":
    unittest.main()

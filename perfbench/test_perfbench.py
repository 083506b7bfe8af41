#!/usr/bin/env python3
"""Tests of the benchmark itself: a short run of every workload.

    python3 perfbench/test_perfbench.py

Each workload runs with --length short, untraced and traced, through
run.py (which builds the program first). The tests check that every
metric BENCHMARK.json names is printed by name with its unit, that the
checks pass, that the traced run reproduces the untraced digest, and
that the program refuses an engine-path override.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, seed=3, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--length", "short"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def digest(stdout):
    m = re.search(r"^digest \S+ seed=\d+ ([0-9a-f]{16})", stdout, re.M)
    return m.group(1) if m else None


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace, wanted):
        res = run(workload, trace)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        lines = res.stdout.strip().splitlines()
        out = json.loads(lines[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            # Printed by name with its unit above the JSON line too.
            self.assertRegex(res.stdout, r"(?m)^%s\s+\S+ %s$" % (
                re.escape(m["name"]), re.escape(m["unit"])))
        return res.stdout, out["metrics"]

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["walk_4k", "populate_4g", "thp_churn"])
        for w in names:
            with self.subTest(workload=w):
                plain, e2e = self.check_run(w, 0, SPEC["end_to_end"])
                traced, layers = self.check_run(w, 1, SPEC["per_layer"])
                self.assertIsNotNone(digest(plain))
                self.assertEqual(digest(plain), digest(traced))
                for m in ("setup_s", "sim_accesses_per_s", "peak_rss_mb",
                          "paper_err"):
                    self.assertGreater(e2e[m]["value"], 0, m)
                self.assertGreater(layers["sim.replay_s"]["value"], 0)
                self.assertGreater(layers["host.measured_s"]["value"], 0)
                if w == "thp_churn":
                    self.assertEqual(e2e["paper_err"]["value"], 1)
                    self.assertGreater(layers["os.thp_splits"]["value"], 0)
                    self.assertGreater(
                        layers["os.thp_collapses"]["value"], 0)

    def test_refuses_engine_override(self):
        env = dict(os.environ, MITOSIM_FUSE="0")
        res = run("walk_4k", 0, env=env)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)
        self.assertIn("MITOSIM_FUSE", res.stderr)


if __name__ == "__main__":
    unittest.main()

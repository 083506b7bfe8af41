#!/usr/bin/env python3
"""Tests of tools/cmp_reports.py on synthetic report pairs.

    python3 tools/test_cmp_reports.py

Reports that differ only in "wall_ms" or in check_* keys compare equal
(exit 0); a difference anywhere else, the per-job "metrics" section
included, is drift (exit 1). --golden compares "runs" and "speedups"
only.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CMP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "cmp_reports.py")

BASE = {
    "schema_version": 1,
    "bench": "synthetic",
    "config": {"sockets": 4},
    "runs": [{"label": "gups/F", "tags": {"config": "F"},
              "metrics": {"runtime": 1000.0, "walk_fraction": 0.25}}],
    "speedups": {"gups F/F+M": 1.5},
    "wall_ms": {"gups/F": {"total": 12.0, "fused_runs": 3},
                "total": 12.5},
    "metrics": {"gups/F": {"sched_enqueues": 4, "thp_collapses": 7,
                           "walk_cycles_total{pid=1}": 900}},
}


class CmpReportsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def cmp(self, a, b, *flags):
        res = subprocess.run(
            [sys.executable, CMP, *flags, self.write("a.json", a),
             self.write("b.json", b)],
            capture_output=True, text=True)
        return res.returncode

    def variant(self, edit):
        doc = copy.deepcopy(BASE)
        edit(doc)
        return doc

    def test_identical_reports_match(self):
        self.assertEqual(self.cmp(BASE, BASE), 0)

    def test_wall_ms_is_ignored(self):
        def edit(d):
            d["wall_ms"]["gups/F"]["total"] = 99.0
            d["wall_ms"]["gups/F"]["fused_runs"] = 0
        self.assertEqual(self.cmp(BASE, self.variant(edit)), 0)
        self.assertEqual(
            self.cmp(BASE, self.variant(lambda d: d.pop("wall_ms"))), 0)

    def test_check_keys_are_ignored(self):
        def edit(d):
            d["metrics"]["gups/F"]["check_violations"] = 0
            d["metrics"]["gups/F"]["check_checkpoints"] = 41
            d["runs"][0]["metrics"]["check_leaves_checked"] = 5.0
        checked = self.variant(edit)
        self.assertEqual(self.cmp(BASE, checked), 0)
        recount = copy.deepcopy(checked)
        recount["metrics"]["gups/F"]["check_checkpoints"] = 42
        self.assertEqual(self.cmp(checked, recount), 0)

    def test_other_metrics_keys_are_compared(self):
        def changed(d):
            d["metrics"]["gups/F"]["thp_collapses"] = 8
        def added(d):
            d["metrics"]["gups/F"]["sched_preemptions"] = 0
        def removed(d):
            del d["metrics"]["gups/F"]["sched_enqueues"]
        def extra_job(d):
            d["metrics"]["gups/F+M"] = {"thp_collapses": 7}
        for edit in (changed, added, removed, extra_job):
            with self.subTest(edit.__name__):
                self.assertEqual(self.cmp(BASE, self.variant(edit)), 1)

    def test_runs_speedups_and_config_are_compared(self):
        def run_metric(d):
            d["runs"][0]["metrics"]["walk_fraction"] = 0.3
        def speedup(d):
            d["speedups"]["gups F/F+M"] = 1.4
        def config(d):
            d["config"]["sockets"] = 2
        for edit in (run_metric, speedup, config):
            with self.subTest(edit.__name__):
                self.assertEqual(self.cmp(BASE, self.variant(edit)), 1)

    def test_golden_ignores_metrics(self):
        made = subprocess.run(
            [sys.executable, CMP, "--make-golden",
             self.write("base.json", BASE)],
            capture_output=True, text=True, check=True)
        golden = json.loads(made.stdout)
        self.assertEqual(set(golden), {"runs", "speedups"})

        def metrics(d):
            d["metrics"]["gups/F"]["thp_collapses"] = 8
        def run_metric(d):
            d["runs"][0]["metrics"]["runtime"] = 1001.0
        self.assertEqual(self.cmp(golden, BASE, "--golden"), 0)
        self.assertEqual(
            self.cmp(golden, self.variant(metrics), "--golden"), 0)
        self.assertEqual(
            self.cmp(golden, self.variant(run_metric), "--golden"), 1)


if __name__ == "__main__":
    unittest.main()

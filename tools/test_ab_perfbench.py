#!/usr/bin/env python3
"""Tests of tools/ab_perfbench.py's parsing and statistics.

    python3 tools/test_ab_perfbench.py

Runs on canned mitobench output: nothing is built or run.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_perfbench as ab  # noqa: E402

REPORT = """\
# mitobench workload=walk_4k seed=42 frag_seed=1 seconds=10 trace=0 length=full
# host nproc=4 compiler=GNU 12.2.0 build=Release
# iter 0 plain setup=0.0091s measured=0.6400s probe=300.000ns accesses=2400000 speedup=1.190000 digest=00c0ffee12345678
# iter 1 plain setup=0.0090s measured=0.6300s probe=301.000ns accesses=2400000 speedup=1.190000 digest=00c0ffee12345678
digest walk_4k seed=42 00c0ffee12345678 speedup=1.190000
# wall clock: setup_s 0.00905 s, sim_accesses_per_s {wall_rate} 1/s; host probe 300.5 ns/key (reference 300)
setup_s                      0.00905 s
sim_accesses_per_s           {rate} 1/s
checks: 12 run, 0 failed (failure share 0)
{{"correct": true, "attempted": 12, "failed": 0, "metrics": {{"setup_s": {{"value": {setup}, "unit": "s"}}, "sim_accesses_per_s": {{"value": {rate}, "unit": "1/s"}}, "peak_rss_mb": {{"value": 190.5, "unit": "MiB"}}}}}}
"""


def report(rate, setup=0.009, wall_rate=None, digest=None):
    text = REPORT.format(rate=rate, setup=setup,
                         wall_rate=wall_rate if wall_rate else rate)
    if digest:
        text = text.replace("00c0ffee12345678", digest)
    return text


DIRECTIONS = {"setup_s": "lower", "sim_accesses_per_s": "higher",
              "peak_rss_mb": "lower"}


class ParseTest(unittest.TestCase):
    def test_reads_metrics_digest_and_wall_clock(self):
        run = ab.parse_run(report(3.8e6, wall_rate=3.7e6))
        self.assertEqual(run["digest"], "00c0ffee12345678")
        self.assertTrue(run["correct"])
        self.assertEqual(run["failed"], 0)
        self.assertEqual(run["metrics"]["sim_accesses_per_s"], 3.8e6)
        self.assertEqual(run["metrics"]["setup_s"], 0.009)
        self.assertEqual(run["metrics"]["peak_rss_mb"], 190.5)
        self.assertEqual(run["metrics"]["wall.sim_accesses_per_s"], 3.7e6)
        self.assertEqual(run["metrics"]["wall.setup_s"], 0.00905)

    def test_failed_checks_are_reported(self):
        text = report(1.0).replace('"correct": true', '"correct": false')
        text = text.replace('"failed": 0', '"failed": 2')
        run = ab.parse_run(text)
        self.assertFalse(run["correct"])
        self.assertEqual(run["failed"], 2)

    def test_missing_result_line_is_an_error(self):
        text = "\n".join(l for l in report(1.0).splitlines()
                         if not l.startswith("{"))
        with self.assertRaises(ab.RunError):
            ab.parse_run(text)

    def test_missing_digest_is_an_error(self):
        text = "\n".join(l for l in report(1.0).splitlines()
                         if not l.startswith("digest "))
        with self.assertRaises(ab.RunError):
            ab.parse_run(text)


class StatsTest(unittest.TestCase):
    def pairs(self, base_rates, head_rates, **kw):
        return [(ab.parse_run(report(b, **kw)), ab.parse_run(report(h, **kw)))
                for b, h in zip(base_rates, head_rates)]

    def row(self, rows, name):
        return next(r for r in rows if r["metric"] == name)

    def test_quartiles_inclusive(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(ab.quartiles([7]), (7, 7, 7))
        q1, med, q3 = ab.quartiles([4, 1, 3, 2])
        self.assertEqual((q1, med, q3), (1.75, 2.5, 3.25))

    def test_clear_gain_is_a_gain(self):
        base = [3.80e6, 3.82e6, 3.79e6, 3.81e6, 3.83e6, 3.78e6]
        head = [4.40e6, 4.38e6, 4.41e6, 4.36e6, 4.42e6, 4.39e6]
        rows = ab.summarize(self.pairs(base, head), DIRECTIONS)
        r = self.row(rows, "sim_accesses_per_s")
        self.assertEqual(r["better"], "higher")
        self.assertEqual(r["won"], 6)
        self.assertEqual(r["pairs"], 6)
        self.assertTrue(r["gain"])
        self.assertAlmostEqual(r["change"], 4.395e6 / 3.805e6 - 1.0)
        # The wall-clock twin follows the metric's direction.
        self.assertEqual(self.row(rows, "wall.sim_accesses_per_s")["won"],
                         6)

    def test_lower_is_better_for_times(self):
        base = [1.0] * 4
        pairs = [(ab.parse_run(report(1.0, setup=0.010)),
                  ab.parse_run(report(1.0, setup=0.008)))
                 for _ in base]
        r = self.row(ab.summarize(pairs, DIRECTIONS), "setup_s")
        self.assertEqual(r["better"], "lower")
        self.assertEqual(r["won"], 4)

    def test_one_lost_pair_in_six_is_not_a_gain(self):
        base = [3.8e6] * 6
        head = [4.4e6] * 5 + [3.7e6]
        r = self.row(ab.summarize(self.pairs(base, head), DIRECTIONS),
                     "sim_accesses_per_s")
        self.assertEqual(r["won"], 5)
        self.assertFalse(r["gain"])

    def test_shift_inside_base_spread_is_not_a_gain(self):
        base = [3.0e6, 5.0e6, 3.0e6, 5.0e6, 3.0e6, 5.0e6, 3.0e6, 5.0e6,
                3.0e6, 5.0e6]
        head = [b + 0.1e6 for b in base]
        r = self.row(ab.summarize(self.pairs(base, head), DIRECTIONS),
                     "sim_accesses_per_s")
        self.assertEqual(r["won"], 10)
        self.assertFalse(r["gain"])

    def test_unlisted_metric_counts_lower_as_better(self):
        self.assertFalse(ab.higher_is_better("tlb.lookup_ns", {}))
        self.assertTrue(ab.higher_is_better("wall.sim_accesses_per_s",
                                            DIRECTIONS))

    def test_digests(self):
        same = self.pairs([1.0, 2.0], [1.0, 2.0])
        self.assertTrue(ab.digests_agree(same))
        moved = [(ab.parse_run(report(1.0)),
                  ab.parse_run(report(1.0, digest="00c0ffee12345679")))]
        self.assertFalse(ab.digests_agree(moved))

    def test_table_lists_every_metric(self):
        rows = ab.summarize(self.pairs([1.0, 2.0], [2.0, 3.0]), DIRECTIONS)
        table = ab.format_table(rows)
        for name in ("setup_s", "sim_accesses_per_s", "peak_rss_mb",
                     "wall.setup_s", "wall.sim_accesses_per_s"):
            self.assertIn(name, table)
        self.assertIn("2/2", table)


if __name__ == "__main__":
    unittest.main()

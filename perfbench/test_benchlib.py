#!/usr/bin/env python3
"""Self-tests of the benchmark's own code (no build needed):

  python3 perfbench/test_benchlib.py
"""

import json
import math
import unittest

import benchlib


def span(id_, parent, name, start, end, job=-1):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "job": job}


def job(id_, name, cycles=100, **kw):
    j = {"id": id_, "name": name, "ok": True, "error": "", "halted": True,
         "validated": True, "cycles": cycles, "insts": 50,
         "work_signal_deliveries": 1, "work_plan_calls": 2,
         "work_segments_scanned": 3, "work_lane_words_touched": 4}
    j.update(kw)
    return j


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchlib.nearest_rank(values, 0.9), 90)
        self.assertEqual(benchlib.nearest_rank([7.0], 0.9), 7.0)

    def test_ten_beyond_needs_a_hundred_samples(self):
        self.assertEqual(benchlib.samples_beyond(100, 0.9), 10)
        self.assertEqual(benchlib.samples_beyond(99, 0.9), 9)

    def test_quartiles_match_statistics(self):
        q1, q2, q3 = benchlib.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(q2, 5.5)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, 0, "pass", 0.0, 10.0),
                 span(2, 1, "job", 1.0, 9.0, job=0),
                 span(3, 2, "sim.construct", 1.0, 2.0, job=0),
                 span(4, 2, "core.run", 2.0, 8.0, job=0)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[4], 6.0)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "pass", 0.0, 10.0),
                 span(2, 1, "job", 0.0, 6.0, job=0),
                 span(3, 1, "job", 4.0, 8.0, job=1)]
        self.assertAlmostEqual(benchlib.self_times(spans)[1], 2.0)

    def test_self_time_grouped_by_root(self):
        spans = [span(1, 0, "pass", 0.0, 4.0),
                 span(2, 1, "core.run", 0.0, 1.0, job=0),
                 span(3, 1, "core.run", 1.0, 3.0, job=1),
                 span(4, 0, "pass", 5.0, 6.0)]
        roots = benchlib.self_time_by_root(spans)
        self.assertAlmostEqual(roots[1]["core.run"], 3.0)
        self.assertAlmostEqual(roots[1]["pass"], 1.0)
        self.assertEqual(roots[4], {"pass": 1.0})

    def test_parent_linking_checked(self):
        good = [span(1, 0, "pass", 0.0, 4.0),
                span(2, 1, "job", 1.0, 3.0, job=5),
                span(3, 2, "sim.prepare", 1.0, 2.0, job=5)]
        self.assertEqual(benchlib.check_spans(good), [])
        bad = good + [span(4, 9, "orphan", 0.0, 1.0),
                      span(5, 2, "outside", 2.0, 3.5, job=5),
                      span(6, 2, "wrong job", 1.0, 2.0, job=6)]
        problems = benchlib.check_spans(bad)
        self.assertEqual(len(problems), 3)
        self.assertIn("unknown parent", problems[0])
        self.assertIn("outside its parent", problems[1])
        self.assertIn("job 6", problems[2])


class Gate(unittest.TestCase):
    def test_failures(self):
        passes = [
            {"kind": "serial", "jobs": [job(0, "a"), job(1, "b")]},
            {"kind": "serial", "jobs": [
                job(2, "a", cycles=101), job(3, "b", halted=False),
            ]},
            {"kind": "serial", "jobs": [
                job(4, "a", validated=False),
                job(5, "b", ok=False, error="boom"),
            ]},
        ]
        failures = benchlib.job_failures(passes)
        self.assertEqual(sorted(failures), [2, 3, 4, 5])
        self.assertIn("counts differ", failures[2])
        self.assertIn("halt", failures[3])
        self.assertIn("functional model", failures[4])
        self.assertIn("boom", failures[5])

    def test_setup_probe_jobs_only_need_ok(self):
        passes = [{"kind": "setup_probe",
                   "jobs": [job(0, "a", halted=False, validated=False,
                                cycles=0)]}]
        self.assertEqual(benchlib.job_failures(passes), {})


class StrictJson(unittest.TestCase):
    def test_result_line_keys_and_types(self):
        line = benchlib.result_line(True, 10, 0,
                                    {"wall_s": (1.25, "s")})
        obj = json.loads(line)
        self.assertEqual(sorted(obj),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(obj["metrics"]["wall_s"],
                         {"value": 1.25, "unit": "s"})
        self.assertNotIn("\n", line)

    def test_result_line_rejects_non_finite(self):
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 1, 0, {"x": (math.nan, "s")})
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 1, 0, {"x": (math.inf, "s")})

    def test_parse_records(self):
        text = "noise\nbench-record {\"workload\": \"w\"}\n{}\n"
        self.assertEqual(benchlib.parse_records(text), [{"workload": "w"}])


class Verdicts(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0,
            100.2]

    def test_improved(self):
        change = [v * 0.8 for v in self.BASE]
        v = benchlib.verdict(self.BASE, change, "lower", bound=0.1)
        self.assertEqual(v["verdict"], "improved")
        self.assertEqual(v["won"], 1.0)

    def test_unchanged_within_bound(self):
        change = [v * 1.02 for v in self.BASE]
        v = benchlib.verdict(self.BASE, change, "lower", bound=0.1)
        self.assertEqual(v["verdict"], "unchanged")

    def test_worse_beyond_bound(self):
        change = [v * 1.3 for v in self.BASE]
        v = benchlib.verdict(self.BASE, change, "lower", bound=0.1)
        self.assertEqual(v["verdict"], "worse")
        v = benchlib.verdict(self.BASE, [x / 1.3 for x in self.BASE],
                             "higher", bound=0.1)
        self.assertEqual(v["verdict"], "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        base = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0,
                110.0, 100.0]
        change = [v + 1 for v in reversed(base)]
        v = benchlib.verdict(base, change, "lower", bound=0.1)
        self.assertEqual(v["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        base = [100.0, 130.0, 110.0, 125.0, 105.0]
        change = [50.0, 52.0, 51.0, 53.0, 54.0]
        v = benchlib.verdict(base, change, "lower", bound=0.05)
        self.assertEqual(v["verdict"], "improved")

    def test_exact_counts(self):
        self.assertEqual(benchlib.verdict([5, 6], [5, 6], "lower",
                                          exact=True)["verdict"],
                         "unchanged")
        self.assertEqual(benchlib.verdict([5, 6], [4, 5], "lower",
                                          exact=True)["verdict"],
                         "improved")
        self.assertEqual(benchlib.verdict([5, 6], [5, 7], "lower",
                                          exact=True)["verdict"],
                         "unresolved")

    def test_compare_rows(self):
        spec = {"end_to_end": [{"name": "wall_s", "better": "lower",
                                "bound": 0.1}],
                "per_layer": [{"name": "core.cycles", "better": "lower"}]}

        def rec(wall, cycles):
            return {"workload": "w", "trace": 0,
                    "metrics": {"wall_s": {"value": wall},
                                "core.cycles": {"value": cycles}}}

        base = [rec(1.0, 7), rec(1.01, 7)]
        change = [rec(1.02, 7), rec(1.0, 7)]
        rows = benchlib.compare(base, change, spec)
        verdicts = {metric: v["verdict"] for _, metric, _, v in rows}
        self.assertEqual(verdicts, {"wall_s": "unchanged",
                                    "core.cycles": "unchanged"})


if __name__ == "__main__":
    unittest.main()

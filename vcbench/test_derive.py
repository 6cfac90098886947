"""Unit tests of the benchmark's metric derivations.

Run from the repository root:  python3 -m unittest discover -s vcbench
"""

import unittest

import derive


def view(t, diff, ms, iters, work=0):
    return {"t": t, "diff": diff, "ms": ms, "iters": iters, "work_rows": work,
            "edges": 10, "delta": 1}


def traced_pass(calls, jobs, cct_s=1.0, task_ms=0, cop=100, layers=None):
    return {"index": 2, "warmup": False, "traced": True, "cct_s": cct_s,
            "cct_ms": {"ebm": 0, "order": 0, "diff": 1000}, "cop_diffs": cop,
            "retained_bytes": 0, "calls": calls, "layers": layers or {},
            "spark": {"jobs": jobs, "stages": 0, "tasks": 0, "task_ms": task_ms,
                      "shuffle_bytes": 0}}


class UpkeepTest(unittest.TestCase):

    def test_upkeep_is_wall_minus_view_millis(self):
        self.assertAlmostEqual(derive.upkeep_s(10.0, [2500, 3000, 500]), 4.0)

    def test_upkeep_of_a_call_without_views_is_its_wall(self):
        self.assertAlmostEqual(derive.upkeep_s(1.5, []), 1.5)

    def test_upkeep_sums_over_calls(self):
        calls = [{"program": "BF", "wall_s": 5.0, "views": [view(0, False, 1000, 4),
                                                             view(1, True, 2000, 4)]},
                 {"program": "SCC", "wall_s": 3.0, "views": [view(0, False, 2500, 0)]}]
        m = derive.pass_layers(traced_pass(calls, []), cores=4)
        self.assertAlmostEqual(m["diff.upkeep_s"], (5.0 - 3.0) + (3.0 - 2.5))
        self.assertAlmostEqual(m["diff.analytics_s"], 8.0)
        self.assertAlmostEqual(m["diff.upkeep_share"], 2.5 / 8.0)
        self.assertAlmostEqual(m["algorithms.scc_s"], 3.0)


class IntervalUnionTest(unittest.TestCase):

    def test_disjoint_intervals_add_up(self):
        self.assertEqual(derive.interval_union([(0, 2), (5, 6)]), 3)

    def test_overlapping_and_nested_intervals_count_once(self):
        self.assertEqual(derive.interval_union([(4, 9), (0, 5), (6, 7), (12, 13)]), 10)

    def test_touching_intervals_merge(self):
        self.assertEqual(derive.interval_union([(0, 1), (1, 2)]), 2)

    def test_empty(self):
        self.assertEqual(derive.interval_union([]), 0)


class JobsPerIterTest(unittest.TestCase):

    def test_ratio_and_zero_iterations(self):
        self.assertAlmostEqual(derive.jobs_per_iter(26, 4), 6.5)
        self.assertEqual(derive.jobs_per_iter(3, 0), 0.0)

    def test_split_by_mode_uses_engine_jobs_and_view_iterations(self):
        calls = [{"program": "BF", "wall_s": 9.0,
                  "views": [view(0, False, 1000, 4), view(1, True, 4000, 5)]},
                 {"program": "SCC", "wall_s": 2.0, "views": [view(0, False, 1500, 0)]}]
        jobs = ([[0, 10, "scratch"]] * 8 + [[20, 30, "diff"]] * 15 +
                [[40, 50, "upkeep"]] * 6 + [[60, 70, "scc"]] * 9)
        m = derive.pass_layers(traced_pass(calls, jobs), cores=4)
        self.assertAlmostEqual(m["spark.jobs_per_iter_scratch"], 8 / 4)
        self.assertAlmostEqual(m["spark.jobs_per_iter_diff"], 15 / 5)
        self.assertAlmostEqual(m["spark.jobs_per_iter"], 23 / 9)
        self.assertEqual(m["spark.jobs"], 38)
        self.assertEqual(m["spark.jobs_upkeep"], 6)
        self.assertEqual(m["diff.iters_diff"], 5)
        self.assertEqual(m["diff.views_scratch"], 1)


class PercentileTest(unittest.TestCase):

    def test_nearest_rank_with_sample_count(self):
        xs = [float(x) for x in range(1, 21)]
        self.assertEqual(derive.percentile(xs, 50), (10.0, 20))
        self.assertEqual(derive.percentile(xs, 90), (18.0, 20))

    def test_small_sample_and_unsorted_input(self):
        self.assertEqual(derive.percentile([3.0, 1.0, 2.0], 90), (3.0, 3))
        self.assertEqual(derive.percentile([5.0], 50), (5.0, 1))

    def test_empty_sample(self):
        self.assertEqual(derive.percentile([], 90), (0.0, 0))


class SummarizeTest(unittest.TestCase):

    def plain(self, index, total):
        return {"index": index, "warmup": index == 0, "traced": False, "cct_s": 1.0,
                "cct_ms": {"ebm": 0, "order": 0, "diff": 1000}, "cop_diffs": 7,
                "retained_bytes": 2 << 20, "layers": {}, "spark": None,
                "calls": [{"program": "BF", "wall_s": total - 1.0, "views": []}]}

    def test_end_to_end_leaves_out_the_warm_up_pass(self):
        passes = [self.plain(0, 50.0), self.plain(1, 10.0), self.plain(2, 12.0),
                  self.plain(3, 11.0)]
        m, info = derive.summarize([3.0, 0.4, 0.5], passes, traced=False, cores=4)
        self.assertEqual(set(m), set(derive.END_TO_END))
        self.assertAlmostEqual(m["total_s"], 11.0)
        self.assertAlmostEqual(info["cct_s"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.5)
        self.assertAlmostEqual(m["retained_mb"], 2.0)
        self.assertEqual(m["cop_diffs"], 7)
        self.assertAlmostEqual(info["analytics_s"], 10.0)
        self.assertAlmostEqual(info["steady.warmup_ratio"], 50.0 / 11.0)
        self.assertAlmostEqual(info["steady.drift_share"], 11.0 / 10.0 - 1.0)

    def test_traced_run_reports_every_per_layer_metric(self):
        calls = [{"program": "BF", "wall_s": 9.0,
                  "views": [view(0, False, 1000, 4), view(1, True, 4000, 5)]}]
        t = traced_pass(calls, [[0, 1000, "diff"], [500, 2000, "scratch"]], cct_s=1.0,
                        task_ms=8000)
        passes = [self.plain(0, 30.0), self.plain(1, 10.0), t]
        m, _ = derive.summarize([1.0], passes, traced=True, cores=4)
        self.assertEqual(set(m), set(derive.PER_LAYER))
        self.assertAlmostEqual(m["spark.job_s"], 2.0)
        self.assertAlmostEqual(m["spark.driver_s"], 10.0 - 2.0)
        self.assertAlmostEqual(m["spark.cpu_util"], 8.0 / (10.0 * 4))
        self.assertAlmostEqual(m["trace.overhead_share"], 0.0)
        self.assertEqual((m["diff.view_s.p90"], m["diff.view_s.n"]), (4.0, 2))


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's metric derivation.

    python3 perfbench/test_derive.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import derive  # noqa: E402


def iteration(traced, wall_s, jobs=(), **kw):
    it = {"traced": traced, "wall_s": wall_s, "cpu_s": wall_s, "main_cpu_s": 0.0,
          "queue_mae_pct": 3.0, "experiments": len(jobs), "extra": {},
          "worker_utilization": [], "jobs": list(jobs)}
    it.update(kw)
    return it


def raw_run(iterations, counters=None, prof=None, spans=()):
    return {"workload": "w", "seed": 1, "peak_rss_kb": 2048, "mg1_check_s": 0.0,
            "setup_samples": [0.3, 0.1, 0.2], "iterations": iterations,
            "counters": counters or {}, "prof_ns": prof or {}, "spans": list(spans)}


class KeyKinds(unittest.TestCase):
    def test_prefixes_map_to_kinds(self):
        self.assertEqual(derive.key_kind("calibration"), "calibration")
        self.assertEqual(derive.key_kind("impact/comp_P1_B2.5e+06_M1"), "impact")
        self.assertEqual(derive.key_kind("impact/fattree/1001"), "impact")
        self.assertEqual(derive.key_kind("base/FFT"), "baseline")
        self.assertEqual(derive.key_kind("deg/MILC/P4_B250000_M10"), "degradation")
        self.assertEqual(derive.key_kind("pair/FFT/MCB"), "pair")
        self.assertIsNone(derive.key_kind("fingerprint"))

    def test_grouping_skips_cached_and_unknown_rows(self):
        jobs = [["calibration", 5.0, 10, 0], ["deg/FFT/x", 7.0, 20, 0],
                ["deg/MCB/x", 9.0, 30, 0], ["deg/AMG/x", 99.0, 0, 1],
                ["pair/AMG/FFT", 11.0, 40, 0], ["other", 1.0, 1, 0]]
        groups = derive.group_by_kind(jobs)
        self.assertEqual(groups["calibration"], [5.0])
        self.assertEqual(groups["degradation"], [7.0, 9.0])
        self.assertEqual(groups["pair"], [11.0])
        self.assertEqual(groups["impact"], [])
        self.assertEqual(groups["baseline"], [])

    def test_pair_jobs_count_for_both_apps(self):
        self.assertEqual(derive.key_apps("pair/AMG/FFT"), ["AMG", "FFT"])
        self.assertEqual(derive.key_apps("impact/comp_P1"), [])
        jobs = [["pair/AMG/FFT", 2000.0, 1, 0], ["base/FFT", 1000.0, 1, 0]]
        raw = raw_run([iteration(False, 1.0), iteration(True, 2.0, jobs)])
        m = derive.per_layer(raw)
        self.assertAlmostEqual(m["apps.AMG.job_wall_s"], 2.0)
        self.assertAlmostEqual(m["apps.FFT.job_wall_s"], 3.0)
        self.assertEqual(m["apps.MILC.job_wall_s"], 0.0)


class Ratios(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(derive.ratio(5, 0), 0.0)
        self.assertEqual(derive.ratio(0, 0), 0.0)
        self.assertEqual(derive.ratio(3, 4), 0.75)

    def test_no_flow_forward_attempts_and_no_jobs(self):
        counters = {"net.messages_sent": 0, "net.flowfwd.messages": 0,
                    "net.flowfwd.demotions": 0, "net.fastpath.trains": 0}
        raw = raw_run([iteration(False, 1.0), iteration(True, 1.5)], counters)
        m = derive.per_layer(raw)
        self.assertEqual(m["net.flowfwd.share"], 0.0)
        self.assertEqual(m["net.flowfwd.demotion_ratio"], 0.0)
        self.assertEqual(m["net.fastpath.train_share"], 0.0)
        self.assertEqual(m["sim.events_per_busy_s"], 0.0)
        self.assertEqual(m["core.parallel.worker_utilization"], 0.0)
        self.assertEqual(m["core.measure.pair.count"], 0.0)
        self.assertIsInstance(m["core.measure.pair.wall_ms_p95"], derive.Missing)

    def test_flow_forward_ratios_use_their_bases(self):
        counters = {"net.messages_sent": 200, "net.flowfwd.messages": 150,
                    "net.flowfwd.demotions": 30, "net.fastpath.trains": 20}
        m = derive.per_layer(raw_run([iteration(False, 1.0), iteration(True, 1.0)], counters))
        self.assertAlmostEqual(m["net.flowfwd.share"], 0.75)
        self.assertAlmostEqual(m["net.flowfwd.demotion_ratio"], 0.2)
        self.assertAlmostEqual(m["net.fastpath.train_share"], 0.1)

    def test_counters_the_program_lacks_are_missing(self):
        m = derive.per_layer(raw_run([iteration(False, 1.0), iteration(True, 1.0)],
                                     counters={}, prof={"engine": 2e9}))
        self.assertIsInstance(m["sim.events"], derive.Missing)
        self.assertIsInstance(m["net.flowfwd.share"], derive.Missing)
        self.assertIsInstance(m["net.self_s"], derive.Missing)
        self.assertAlmostEqual(m["sim.engine.self_s"], 2.0)

    def test_counts_are_per_traced_iteration(self):
        counters = {"sim.engine.events_executed": 3000}
        its = [iteration(True, 1.4), iteration(True, 1.3)]
        m = derive.per_layer(raw_run(its, counters), baseline_walls=[1.0])
        self.assertEqual(m["sim.events"], 1500)
        self.assertAlmostEqual(m["obs.traced_overhead_pct"], 30.0)

    def test_overhead_baseline_is_only_recorded_untraced_runs(self):
        raw = raw_run([iteration(True, 3.0)])
        m = derive.per_layer(raw, baseline_walls=[2.0, 1.5, 2.5])
        self.assertAlmostEqual(m["obs.traced_overhead_pct"], 50.0)
        # Untraced iterations inside the traced record are not a baseline.
        m = derive.per_layer(raw_run([iteration(False, 1.0), iteration(True, 3.0)]))
        self.assertIsInstance(m["obs.traced_overhead_pct"], derive.Missing)


class Percentiles(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        self.assertIsInstance(derive.tail_percentile(list(range(199)), 0.95), derive.Missing)
        self.assertEqual(derive.tail_percentile(list(range(1, 201)), 0.95), 190)
        self.assertIsInstance(derive.tail_percentile([], 0.95), derive.Missing)

    def test_nearest_rank(self):
        self.assertEqual(derive.nearest_rank([5, 1, 3], 0.5), (3, 1))
        self.assertEqual(derive.nearest_rank(list(range(1, 201)), 0.95), (190, 10))

    def test_per_layer_reports_p95_only_for_large_groups(self):
        deg = [["deg/FFT/%d" % i, float(i), 1, 0] for i in range(1, 241)]
        imp = [["impact/FFT", float(i), 1, 0] for i in range(47)]
        raw = raw_run([iteration(False, 1.0), iteration(True, 1.0, deg + imp)])
        m = derive.per_layer(raw)
        self.assertEqual(m["core.measure.degradation.count"], 240)
        self.assertEqual(m["core.measure.degradation.wall_ms_p95"], 228.0)
        self.assertEqual(m["core.measure.degradation.wall_ms_p50"], 120.5)
        self.assertIsInstance(m["core.measure.impact.wall_ms_p95"], derive.Missing)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [["pipeline", 0.0, 10.0, -1, 0],
                 ["a", 1.0, 4.0, 0, 0],
                 ["b", 3.0, 5.0, 0, 0],   # overlaps a: union covers 1..5
                 ["c", 8.0, 12.0, 0, 0],  # clipped to the parent's end
                 ["leaf", 1.5, 2.0, 1, 0]]
        st = derive.self_times(spans)
        self.assertAlmostEqual(st["pipeline"], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(st["a"], 3.0 - 0.5)
        self.assertAlmostEqual(st["leaf"], 0.5)

    def test_conformance_split_uses_main_thread_cpu(self):
        spans = [["valid.run_conformance", 0.0, 20.0, -1, 1]]
        raw = raw_run([iteration(False, 19.0), iteration(True, 20.0, main_cpu_s=12.0)],
                      spans=spans)
        raw["mg1_check_s"] = 2.0
        m = derive.per_layer(raw)
        self.assertAlmostEqual(m["core.campaign.lazy_s"], 10.0)
        self.assertAlmostEqual(m["core.parallel.prefetch_s"], 8.0)
        self.assertAlmostEqual(m["queueing.mg1_check_s"], 2.0)


class EndToEnd(unittest.TestCase):
    def test_fastest_untraced_wall_and_medians(self):
        its = [iteration(False, 3.0), iteration(True, 0.5), iteration(False, 1.0),
               iteration(False, 2.0)]
        m = derive.end_to_end(raw_run(its))
        self.assertEqual(m["wall_s"], 1.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["queue_mae_pct"], 3.0)

    def test_wall_sums_fastest_stages(self):
        its = [iteration(False, 3.1, stage_s=[1.0, 2.0]),
               iteration(False, 2.6, stage_s=[2.0, 0.5]),
               iteration(True, 0.1, stage_s=[0.05, 0.05])]
        m = derive.end_to_end(raw_run(its))
        # 1.0 + 0.5 from the steps, 0.1 outside them (both iterations).
        self.assertAlmostEqual(m["wall_s"], 1.6)

    def test_wall_falls_back_to_fastest_iteration_on_unequal_stages(self):
        its = [iteration(False, 3.0, stage_s=[1.0, 2.0]),
               iteration(False, 2.5, stage_s=[2.5])]
        self.assertEqual(derive.end_to_end(raw_run(its))["wall_s"], 2.5)


if __name__ == "__main__":
    unittest.main()

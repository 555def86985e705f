#!/usr/bin/env python3
"""Unit tests for gm_bench_diff.py (run under ctest as a stdlib-only
python test — no pytest).

Focus: the join/report behavior, in particular the PR 8 fix for
benchmarks present in only one report. Those used to be dropped from
the output entirely, which made a renamed bench look like a clean diff;
now they are listed in a non-gating "unmatched" section.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gm_bench_diff  # noqa: E402  (path set up above)


def record(bench, metric, value):
    return {"bench": bench, "metric": metric, "value": value,
            "unit": "ns", "wall_ms": 0, "git_sha": "test"}


class GmBenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write_report(self, name, records):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(records, f)
        return path

    def run_diff(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gm_bench_diff.main(argv)
        return code, out.getvalue()

    # ---- median-row selection --------------------------------------

    def test_median_rows_accepts_all_three_conventions(self):
        rows = gm_bench_diff.median_rows([
            record("BM_A_median", "real_time", 1.0),
            record("BM_B_median/iterations:1", "real_time", 2.0),
            record("BM_C", "plan_ms_pre_pr5_median", 3.0),
            record("BM_D_mean", "real_time", 4.0),      # not a median
            record("BM_E_stddev", "real_time", 5.0),    # not a median
        ])
        self.assertEqual(
            set(rows),
            {("BM_A_median", "real_time"),
             ("BM_B_median/iterations:1", "real_time"),
             ("BM_C", "plan_ms_pre_pr5_median")})

    # ---- matched join ----------------------------------------------

    def test_flags_regression_beyond_threshold(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "real_time", 100.0)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "real_time", 150.0)])
        code, out = self.run_diff([base, cur])
        self.assertEqual(code, 0)  # report-only by default
        self.assertIn("<-- slower", out)
        self.assertIn("1 compared, 1 beyond", out)

    def test_fail_on_regression_gates(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "real_time", 100.0)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "real_time", 150.0)])
        code, _ = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 1)

    def test_per_second_metrics_are_higher_is_better(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "items_per_second", 100.0)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "items_per_second", 150.0)])
        code, out = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("<-- faster", out)

    def test_per_s_suffix_metrics_are_higher_is_better(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "admission_tasks_per_s", 1.0e6)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "admission_tasks_per_s", 2.0e6)])
        code, out = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("<-- faster", out)

    def test_per_s_suffix_drop_is_a_regression(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "admission_tasks_per_s", 2.0e6)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "admission_tasks_per_s", 1.0e6)])
        code, out = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("<-- slower", out)

    def test_per_s_inside_name_is_not_throughput(self):
        # Only the *suffix* flips direction: a duration metric that
        # merely contains "per_s" elsewhere stays lower-is-better.
        base = self.write_report("base.json", [
            record("BM_A_median", "plan_ms_per_slot", 10.0)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "plan_ms_per_slot", 20.0)])
        code, out = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("<-- slower", out)

    # ---- unmatched section (the PR 8 bugfix) -----------------------

    def test_unmatched_benches_are_reported_not_dropped(self):
        base = self.write_report("base.json", [
            record("BM_Shared_median", "real_time", 100.0),
            record("BM_Renamed_median", "real_time", 7.0)])
        cur = self.write_report("cur.json", [
            record("BM_Shared_median", "real_time", 101.0),
            record("BM_Brand_New_median", "real_time", 9.0)])
        code, out = self.run_diff([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("unmatched (2 median rows in only one report):",
                      out)
        self.assertIn("baseline only: BM_Renamed_median real_time", out)
        self.assertIn("current only:  BM_Brand_New_median real_time",
                      out)

    def test_unmatched_section_is_not_a_gate(self):
        base = self.write_report("base.json", [
            record("BM_Shared_median", "real_time", 100.0),
            record("BM_Gone_median", "real_time", 7.0)])
        cur = self.write_report("cur.json", [
            record("BM_Shared_median", "real_time", 100.0)])
        code, _ = self.run_diff(["--fail-on-regression", base, cur])
        self.assertEqual(code, 0)

    def test_disjoint_reports_list_everything_unmatched(self):
        base = self.write_report("base.json", [
            record("BM_Old_median", "real_time", 1.0)])
        cur = self.write_report("cur.json", [
            record("BM_New_median", "real_time", 2.0)])
        code, out = self.run_diff([base, cur])
        self.assertEqual(code, 0)
        self.assertIn("no common (bench, metric) median rows", out)
        self.assertIn("baseline only: BM_Old_median real_time", out)
        self.assertIn("current only:  BM_New_median real_time", out)

    def test_fully_matched_reports_emit_no_unmatched_section(self):
        base = self.write_report("base.json", [
            record("BM_A_median", "real_time", 100.0)])
        cur = self.write_report("cur.json", [
            record("BM_A_median", "real_time", 100.0)])
        _, out = self.run_diff([base, cur])
        self.assertNotIn("unmatched", out)

    # ---- input formats ---------------------------------------------

    def test_reads_raw_jsonl(self):
        path = os.path.join(self._tmp.name, "report.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(record("BM_A_median", "real_time", 3.0)))
            f.write("\n")
            f.write(json.dumps(record("BM_A_mean", "real_time", 4.0)))
            f.write("\n")
        rows = gm_bench_diff.median_rows(
            gm_bench_diff.load_records(path))
        self.assertEqual(rows, {("BM_A_median", "real_time"): 3.0})


def result(metrics, correct=True, attempted=100, failed=0):
    """One perfbench/run.py result, as its last stdout line holds it."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in metrics.items()}}


class PerfbenchDiffTest(unittest.TestCase):
    BENCHMARK = {
        "end_to_end": [
            {"name": "slots_s", "better": "lower", "bound": 0.25},
            {"name": "green_utilization", "better": "higher",
             "bound": 0.03}],
        "per_layer": [
            {"name": "planner.dijkstra_pops", "better": "lower"},
            {"name": "core.decide_ms", "better": "lower"}],
    }

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        patch = mock.patch.object(
            gm_bench_diff, "BENCHMARK",
            self.write_lines("BENCHMARK.json", [self.BENCHMARK]))
        patch.start()
        self.addCleanup(patch.stop)

    def write_lines(self, name, objects):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for obj in objects:
                f.write(json.dumps(obj) + "\n")
        return path

    def run_diff(self, argv):
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = gm_bench_diff.main(argv)
        return code, out.getvalue(), err.getvalue()

    def row(self, out, metric):
        return next(line for line in out.splitlines()
                    if line.split() and line.split()[0] == metric)

    def test_medians_quartiles_delta_and_pair_counts(self):
        base = self.write_lines("base.jsonl", [
            result({"slots_s": v}) for v in (0.40, 0.50, 0.45, 0.60)])
        cur = self.write_lines("cur.jsonl", [
            result({"slots_s": v}) for v in (0.30, 0.35, 0.50, 0.20)])
        code, out, _ = self.run_diff(
            ["--workload", "churn_week", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("== churn_week: 4 parent, 4 change invocations", out)
        row = self.row(out, "slots_s")
        # Medians 0.475 -> 0.325; parent quartiles (inclusive) 0.4375
        # and 0.525; three pairs moved down, one up.
        self.assertIn("0.475 [0.4375, 0.525]", row)
        self.assertIn("->        0.325", row)
        self.assertIn("-31.6%", row)
        self.assertIn("down 3/4 up 1/4", row)
        self.assertTrue(row.endswith("better"))

    def test_single_workload_lines_need_a_workload(self):
        base = self.write_lines("base.jsonl", [result({"slots_s": 1.0})])
        code, _, err = self.run_diff([base, base])
        self.assertEqual(code, 2)
        self.assertIn("--workload NAME", err)

    def test_all_workload_lines_name_their_own(self):
        line = {"event_week": result({"slots_s": 1.0}),
                "churn_week": result({"slots_s": 2.0})}
        base = self.write_lines("base.jsonl", [line, line])
        code, out, _ = self.run_diff([base, base])
        self.assertEqual(code, 0)
        self.assertIn("== churn_week: 2 parent, 2 change", out)
        self.assertIn("== event_week: 2 parent, 2 change", out)
        self.assertIn("down 0/2 up 0/2", self.row(out, "slots_s"))

    def test_groups_per_layer_metrics_after_end_to_end(self):
        metrics = {"planner.dijkstra_pops": 10.0, "slots_s": 1.0,
                   "core.decide_ms": 5.0, "planner.solves": 3.0}
        base = self.write_lines("base.jsonl", [result(metrics)])
        code, out, _ = self.run_diff(["--workload", "w", base, base])
        self.assertEqual(code, 0)
        names = [line.split()[0] for line in out.splitlines()
                 if line.startswith("  ")]
        self.assertEqual(names, ["[end", "slots_s", "[core]",
                                 "core.decide_ms", "[planner]",
                                 "planner.dijkstra_pops",
                                 "planner.solves"])

    def test_flags_a_move_past_the_bound_in_the_worse_direction(self):
        base = self.write_lines("base.jsonl", [
            result({"slots_s": 1.0, "green_utilization": 0.90})])
        cur = self.write_lines("cur.jsonl", [
            result({"slots_s": 1.3, "green_utilization": 0.80})])
        code, out, _ = self.run_diff(
            ["--workload", "w", "--fail-on-regression", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("worse  <-- past the 25% bound",
                      self.row(out, "slots_s"))
        self.assertIn("worse  <-- past the 3% bound",
                      self.row(out, "green_utilization"))
        self.assertIn("2 flagged", out)

    def test_a_worse_move_inside_the_bound_is_not_flagged(self):
        base = self.write_lines("base.jsonl", [
            result({"slots_s": 1.0, "planner.dijkstra_pops": 10.0})])
        cur = self.write_lines("cur.jsonl", [
            result({"slots_s": 1.2, "planner.dijkstra_pops": 30.0})])
        code, out, _ = self.run_diff(
            ["--workload", "w", "--fail-on-regression", base, cur])
        self.assertEqual(code, 0)
        self.assertTrue(self.row(out, "slots_s").endswith("worse"))
        # Per-layer metrics have a direction but no bound.
        self.assertTrue(
            self.row(out, "planner.dijkstra_pops").endswith("worse"))
        self.assertIn("0 flagged", out)

    def test_higher_is_better_metrics_read_a_rise_as_better(self):
        base = self.write_lines("base.jsonl", [
            result({"green_utilization": 0.80})])
        cur = self.write_lines("cur.jsonl", [
            result({"green_utilization": 0.90})])
        _, out, _ = self.run_diff(["--workload", "w", base, cur])
        self.assertTrue(
            self.row(out, "green_utilization").endswith("better"))

    def test_incorrect_invocations_and_failed_share_are_flagged(self):
        base = self.write_lines("base.jsonl", [result({"slots_s": 1.0})])
        cur = self.write_lines("cur.jsonl", [
            result({}, correct=False, failed=100)])
        code, out, _ = self.run_diff(
            ["--workload", "w", "--fail-on-regression", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("correct 1/1 -> 0/1; failed share 0 -> 1", out)
        self.assertIn("slots_s  only in the parent", out)

    def test_micro_reports_still_take_the_median_row_path(self):
        records = [record("BM_A_median", "real_time", 1.0)]
        self.assertFalse(gm_bench_diff.is_perfbench(records))
        self.assertTrue(gm_bench_diff.is_perfbench([result({})]))
        self.assertTrue(gm_bench_diff.is_perfbench(
            [{"churn_week": result({})}]))


class BenchmarkSpecTest(unittest.TestCase):
    def test_reads_the_repository_benchmark(self):
        spec = gm_bench_diff.load_benchmark()
        self.assertEqual(spec["slots_s"][0], "lower")
        self.assertTrue(all(better in ("lower", "higher")
                            for better, _ in spec.values()))


if __name__ == "__main__":
    unittest.main()

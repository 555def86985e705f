"""Tests of the benchmark's own arithmetic (stdlib unittest).

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


def outcome(slots=204):
    ledger = {col: [float(i) * 1.5e6 + 0.1 for i in range(slots)]
              for col in ("green_supply_j", "brown_j", "demand_j",
                          "battery_stored_end_j")}
    ledger["active_nodes"] = [64.0] * slots
    counts = {"tasks_total": 1401, "tasks_completed": 1401,
              "deadline_misses": 0, "tasks_unfinished": 0,
              "arrivals_generated": 0, "arrivals_admitted": 0,
              "arrivals_rejected": 0, "nodes_failed": 0}
    return {"ledger": ledger, "counts": counts}


def counters(**overrides):
    c = {key: 0 for key in benchlib.LAYER_COUNTS}
    c.update({"planner.warm_accepts": 0, "brown_kwh": 1.0,
              "green_utilization": 0.5})
    c.update(overrides)
    return c


def traced_pair(counter_values, wall=100.0, untraced_wall=90.0):
    totals = {key: 1.0 for key in benchlib.LAYER_SPANS}
    totals.update({"core.unattributed_ms": wall - len(benchlib.LAYER_SPANS),
                   "core.decide_ms_p95": 0.5, "trace.wall_ms": wall,
                   "audit.run_ms": 2.0, "slots": 204})
    untraced = {"wall_ms": untraced_wall}
    traced = {"counters": counter_values, "audit_failed": 0,
              "workload.requests": 10, "workload.tasks": 3,
              "outcome": outcome()}
    return untraced, traced, totals


class TailIndex(unittest.TestCase):
    def test_p95_of_204_slots_leaves_ten_samples_beyond(self):
        i = benchlib.tail_index(204, 0.95)
        self.assertEqual(i, 193)
        self.assertEqual(204 - 1 - i, 10)

    def test_p95_one_more_rank_would_leave_nine(self):
        # 0.95 is the highest 1%-step percentile with >= 10 beyond it.
        self.assertEqual(204 - 1 - benchlib.tail_index(204, 0.96), 8)

    def test_quantile_is_a_measured_value(self):
        values = list(range(204, 0, -1))  # unsorted input
        self.assertEqual(benchlib.quantile(values, 0.95), 194)
        self.assertEqual(benchlib.quantile(values, 0.50), 102)

    def test_single_sample(self):
        self.assertEqual(benchlib.quantile([7.0], 0.95), 7.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.tail_index(0, 0.95)


class ZeroBase(unittest.TestCase):
    def test_ratio_with_zero_base_is_zero(self):
        self.assertEqual(benchlib.ratio(0, 0), 0.0)
        self.assertEqual(benchlib.ratio(3, 4), 0.75)

    def test_warm_accept_ratio_without_solves(self):
        m = benchlib.per_layer([traced_pair(counters())])
        self.assertEqual(m["planner.warm_attempts"], (0, "count"))
        self.assertEqual(m["planner.warm_accept_ratio"], (0.0, "fraction"))

    def test_warm_accept_ratio_with_base(self):
        m = benchlib.per_layer([traced_pair(counters(
            **{"planner.warm_accepts": 203, "planner.warm_rejects": 1}))])
        self.assertEqual(m["planner.warm_attempts"], (204, "count"))
        self.assertAlmostEqual(m["planner.warm_accept_ratio"][0], 203 / 204)

    def test_failure_share_without_operations(self):
        empty = outcome()["counts"]
        empty.update(tasks_total=0, tasks_completed=0)
        self.assertEqual(benchlib.operations(empty), (0, 0))
        u, t, s = traced_pair(counters())
        t["outcome"]["counts"] = empty
        m = benchlib.per_layer([(u, t, s)])
        self.assertEqual(m["ops.failed_share"], (0.0, "fraction"))

    def test_operations_count_misses_and_rejections(self):
        c = outcome()["counts"]
        c.update(tasks_total=157003, deadline_misses=2,
                 arrivals_rejected=11750)
        self.assertEqual(benchlib.operations(c), (168753, 11752))

    def test_admission_metrics_on_closed_loop_run_are_zero(self):
        m = benchlib.per_layer([traced_pair(counters())])
        for key in ("admission.decisions", "admission.admitted",
                    "admission.rejected", "admission.deferrals"):
            self.assertEqual(m[key], (0, "count"))

    def test_overhead_with_zero_untraced_wall(self):
        self.assertEqual(benchlib.overhead_pct(5.0, 1.0, 0.0), 0.0)


class OutcomeComparison(unittest.TestCase):
    def test_equal_outcomes(self):
        self.assertIsNone(
            benchlib.first_outcome_difference(outcome(), outcome()))

    def test_single_ledger_value_one_ulp_off(self):
        got = outcome()
        v = got["ledger"]["brown_j"][117]
        got["ledger"]["brown_j"][117] = v + v * 2.0**-52
        diff = benchlib.first_outcome_difference(outcome(), got)
        self.assertIsNotNone(diff)
        self.assertIn("brown_j[117]", diff)

    def test_changed_count(self):
        got = outcome()
        got["counts"]["deadline_misses"] = 1
        self.assertIn("deadline_misses",
                      benchlib.first_outcome_difference(outcome(), got))

    def test_missing_slot(self):
        got = outcome()
        got["ledger"]["demand_j"].pop()
        self.assertIn("demand_j",
                      benchlib.first_outcome_difference(outcome(), got))

    def test_missing_column(self):
        got = copy.deepcopy(outcome())
        del got["ledger"]["active_nodes"]
        self.assertIsNotNone(benchlib.first_outcome_difference(outcome(), got))


class SpanReconciliation(unittest.TestCase):
    def events(self):
        ev = [{"ph": "M", "name": "process_name", "pid": 1, "args": {}}]

        def span(name, dur_us):
            ev.append({"ph": "X", "name": name, "pid": 1, "ts": 0,
                       "dur": dur_us})

        span("run", 10_000)
        span("setup", 6_000)
        span("workload.generate", 1_000)
        span("storage.cluster_build", 2_000)
        span("core.engine_ctor", 2_500)
        for d in (100, 300, 200):
            span("slot", 1_000)
            span("core.observe", 50)
            span("core.decide", d)
            span("core.act", 400)
        span("finalize", 10)
        span("core.finalize", 5)
        span("audit", 700)
        return ev

    def test_layers_plus_unattributed_equal_wall(self):
        t = benchlib.span_totals(self.events())
        layers = sum(t[k] for k in benchlib.LAYER_SPANS)
        self.assertAlmostEqual(layers + t["core.unattributed_ms"],
                               t["trace.wall_ms"])
        self.assertAlmostEqual(t["trace.wall_ms"], 10.0)
        self.assertAlmostEqual(t["core.decide_ms"], 0.6)
        self.assertAlmostEqual(t["core.decide_ms_p95"], 0.3)
        self.assertAlmostEqual(t["audit.run_ms"], 0.7)
        self.assertEqual(t["slots"], 3)

    def test_trace_without_run_span(self):
        with self.assertRaises(ValueError):
            benchlib.span_totals([])

    def test_overhead_excludes_extra_cluster_build(self):
        self.assertAlmostEqual(benchlib.overhead_pct(112.0, 10.0, 100.0), 2.0)

    def test_times_come_from_the_median_traced_run(self):
        pairs = [traced_pair(counters(), wall=w, untraced_wall=90.0)
                 for w in (130.0, 100.0, 110.0)]
        m = benchlib.per_layer(pairs)
        self.assertEqual(m["trace.wall_ms"], (110.0, "ms"))
        layers = sum(m[k][0] for k in benchlib.LAYER_SPANS)
        self.assertAlmostEqual(layers + m["core.unattributed_ms"][0], 110.0)
        self.assertAlmostEqual(m["trace.overhead_pct"][0],
                               100.0 * (110.0 - 1.0 - 90.0) / 90.0)


if __name__ == "__main__":
    unittest.main()

"""Arithmetic of the whole-run benchmark, kept apart from process
handling so perfbench/test_benchlib.py can check it on its own.

Every function here is pure: it takes the records perfbench_runner printed
(see runner.cpp) and returns numbers, or the first difference between
two simulated outcomes.
"""

import math
import statistics

# Per-layer spans the traced run records around calls into the library.
# Their sum plus core.unattributed_ms is the traced wall time.
LAYER_SPANS = {
    "workload.generate_ms": "workload.generate",
    "storage.cluster_build_ms": "storage.cluster_build",
    "core.engine_ctor_ms": "core.engine_ctor",
    "core.observe_ms": "core.observe",
    "core.decide_ms": "core.decide",
    "core.act_ms": "core.act",
    "core.finalize_ms": "core.finalize",
}

# Values the program reports itself, copied through unchanged, with
# their units.
LAYER_COUNTS = {
    "planner.solves": "count",
    "planner.dijkstra_pops": "count",
    "planner.augmenting_paths": "count",
    "planner.plan_cache_hits": "count",
    "planner.warm_rejects": "count",
    "power.node_power_ons": "count",
    "power.node_power_offs": "count",
    "power.forced_wakeups": "count",
    "power.mean_active_nodes": "nodes",
    "engine.task_migrations": "count",
    "engine.assignment_failures": "count",
    "engine.forced_urgent_runs": "count",
    "router.requests": "count",
    "router.offloaded_writes": "count",
    "router.unavailable_reads": "count",
    "router.read_latency_p99_ms": "ms",
    "admission.decisions": "count",
    "admission.admitted": "count",
    "admission.rejected": "count",
    "admission.deferrals": "count",
    "scenario.nodes_failed": "count",
}


def tail_index(n, p):
    """0-based index of the nearest-rank p-quantile of n sorted samples."""
    if n <= 0:
        raise ValueError("no samples")
    return min(n - 1, max(0, math.ceil(p * n) - 1))


def quantile(values, p):
    """Nearest-rank p-quantile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[tail_index(len(ordered), p)]


def ratio(numerator, base):
    """numerator / base, or 0.0 when the base is 0 (nothing attempted)."""
    return numerator / base if base else 0.0


def operations(counts):
    """(attempted, failed) background-task operations of one run.

    An operation is a task the run was offered: every task admitted into
    the pending pool plus every arrival turned away. A deadline miss
    (tasks unfinished at the horizon included) or a rejected arrival is
    a failed operation.
    """
    attempted = counts["tasks_total"] + counts["arrivals_rejected"]
    failed = counts["deadline_misses"] + counts["arrivals_rejected"]
    return attempted, failed


def first_outcome_difference(want, got):
    """None when two simulated outcomes are equal bit for bit, else a
    description of the first differing value. Floats printed with 17
    significant digits parse back to the exact double, so == is exact."""
    for section in ("counts", "ledger"):
        a, b = want[section], got[section]
        if sorted(a) != sorted(b):
            return f"{section}: fields {sorted(a)} != {sorted(b)}"
        for key in sorted(a):
            x, y = a[key], b[key]
            if isinstance(x, list):
                if len(x) != len(y):
                    return f"{section}.{key}: {len(x)} slots != {len(y)}"
                for i, (u, v) in enumerate(zip(x, y)):
                    if u != v:
                        return f"{section}.{key}[{i}]: {u!r} != {v!r}"
            elif x != y:
                return f"{section}.{key}: {x!r} != {y!r}"
    return None


def end_to_end(runs, peak_rss_mb):
    """End-to-end metrics from untraced runs: medians over the runs of
    each run's wall, setup and slot-loop time and of its per-slot
    p50/p95; schedule quality from the (identical) simulated outcome."""
    def median(values):
        return statistics.median(list(values))

    c = runs[0]["counters"]
    return {
        "run_wall_s": (median(r["wall_ms"] for r in runs) / 1e3, "s"),
        "setup_s": (median(r["setup_ms"] for r in runs) / 1e3, "s"),
        "slots_s": (median(r["slots_ms"] for r in runs) / 1e3, "s"),
        "slot_ms_p50": (median(quantile(r["slot_ms"], 0.50) for r in runs),
                        "ms"),
        "slot_ms_p95": (median(quantile(r["slot_ms"], 0.95) for r in runs),
                        "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "brown_kwh": (c["brown_kwh"], "kWh"),
        "green_utilization": (c["green_utilization"], "fraction"),
    }


def span_totals(events):
    """Per-run layer totals from one traced run's Chrome trace events:
    summed layer spans, the per-slot decide p95, the run and audit
    spans, and the slot count."""
    sums = {name: 0.0 for name in LAYER_SPANS.values()}
    decide, wall, audit, slots = [], None, 0.0, 0
    for ev in events:
        if ev.get("ph") != "X":
            continue
        name, ms = ev["name"], ev["dur"] / 1e3
        if name in sums:
            sums[name] += ms
        if name == "core.decide":
            decide.append(ms)
        elif name == "run":
            wall = ms
        elif name == "audit":
            audit += ms
        elif name == "slot":
            slots += 1
    if wall is None:
        raise ValueError("trace has no run span")
    out = {metric: sums[span] for metric, span in LAYER_SPANS.items()}
    out["core.unattributed_ms"] = wall - sum(out.values())
    out["core.decide_ms_p95"] = quantile(decide, 0.95) if decide else 0.0
    out["trace.wall_ms"] = wall
    out["audit.run_ms"] = audit
    out["slots"] = slots
    return out


def overhead_pct(traced_wall_ms, cluster_build_ms, untraced_wall_ms):
    """Tracing overhead: the traced run's wall time without the extra
    cluster build it makes, against the untraced run's wall time."""
    return 100.0 * ratio(
        traced_wall_ms - cluster_build_ms - untraced_wall_ms, untraced_wall_ms)


def per_layer(pairs):
    """Per-layer metrics from (untraced run, traced run, span totals)
    triples. Times come from the traced run with the median wall time,
    so its layer spans still sum to its wall; counts are equal in every
    run, as the gate checks."""
    ranked = sorted(pairs, key=lambda p: p[2]["trace.wall_ms"])
    untraced, traced, t = ranked[(len(ranked) - 1) // 2]
    out = {key: (t[key], "ms") for key in [
        *LAYER_SPANS, "core.unattributed_ms", "core.decide_ms_p95",
        "trace.wall_ms", "audit.run_ms"]}
    out["trace.overhead_pct"] = (overhead_pct(
        t["trace.wall_ms"], t["storage.cluster_build_ms"],
        untraced["wall_ms"]), "%")
    out["workload.requests"] = (traced["workload.requests"], "count")
    out["workload.tasks"] = (traced["workload.tasks"], "count")
    c = traced["counters"]
    for key, unit in LAYER_COUNTS.items():
        out[key] = (c[key], unit)
    attempts = c["planner.warm_accepts"] + c["planner.warm_rejects"]
    out["planner.warm_attempts"] = (attempts, "count")
    out["planner.warm_accept_ratio"] = (
        ratio(c["planner.warm_accepts"], attempts), "fraction")
    out["audit.checks_failed"] = (traced["audit_failed"], "count")
    attempted, failed = operations(traced["outcome"]["counts"])
    out["ops.failed_share"] = (ratio(failed, attempted), "fraction")
    return out

#!/usr/bin/env python3
"""Whole-run benchmark for GreenMatch: wall time, set-up and per-slot
latency of week-long runs, with a per-layer split from a traced run.

Run from the root of a checkout:

  python3 perfbench/run.py --workload churn_week --seed 0 --trace 0
  python3 perfbench/run.py --workload all       # every workload, a table

The first call builds perfbench/runner.cpp and the library sources in
src/ into .bench_build/ (Release). --trace 0 prints the end-to-end
metrics of untraced runs; --trace 1 prints the per-layer metrics of a
traced run and writes its spans to .bench_build/traces/. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
TRACE_CHECKER = os.path.join(ROOT, "tools", "check_chrome_trace.py")

# The checked-in seed set; --seed N adds N to each of them.
DEFAULT_SEEDS = {
    "workload.seed": 1234,
    "arrivals.seed": 7001,
    "scenario.failure_seed": 42,
}

# churn_week: the fleet_week fleet with the failure keys of
# configs/scenarios/repair_storm.conf at a 2,000 h per-node MTBF
# (about 3,500 outages over 10,240 nodes) and the arrival/admission
# keys of configs/scenarios/open_system_week.conf at 1,200 arrivals
# per hour. Overflow arrivals go to the grid instead of being refused,
# so no operation fails by design (see README.md).
CHURN_WEEK = {
    "scenario.failure_process": "weibull",
    "scenario.mtbf_hours": "2000",
    "scenario.weibull_shape": "0.6",
    "scenario.mttr_hours": "8",
    "failures.repair_rate_bytes_per_s": "150e6",
    "failures.repair_deadline_s": "43200",
    "arrivals.enabled": "true",
    "arrivals.rate_per_h": "1200",
    "arrivals.mean_work_s": "7200",
    "arrivals.work_sigma": "0.6",
    "arrivals.deadline_slack_s": "43200",
    "arrivals.utilization": "0.25",
    "arrivals.diurnal": "true",
    "admission.horizon": "24",
    "admission.battery_reserve_soc": "0.6",
    "admission.overflow": "grid",
}

# BENCHMARK.json lists event_week and churn_week. fleet_week stays
# runnable by hand for placement A/B runs, but its short, planner-bound
# slot loop spreads past the 25% bound between runs (README.md).
WORKLOADS = {
    "fleet_week": ("configs/massive_fleet_week.conf", {}),
    "event_week": ("configs/canonical_week.conf", {}),
    "churn_week": ("configs/massive_fleet_week.conf", CHURN_WEEK),
}

# The measuring part of one invocation (the build excluded) must end
# within this many seconds; the runner is killed past it.
RUNNER_LIMIT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def seed_overrides(seed):
    return {key: str(base + seed) for key, base in DEFAULT_SEEDS.items()}


def build():
    """Configures once, then builds; the build is a no-op when current."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD_DIR, "-j", str(os.cpu_count() or 2)])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)


def runner_command(workload, seed, seconds, trace):
    config, overrides = WORKLOADS[workload]
    cmd = [RUNNER, "--config", os.path.join(ROOT, config),
           "--seconds", str(seconds), "--run-id", f"{workload}-seed{seed}"]
    for key, value in {**overrides, **seed_overrides(seed)}.items():
        cmd += ["--set", f"{key}={value}"]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    return cmd


def check_trace(path):
    """Validates one span file; returns (problem or None, span totals)."""
    checked = subprocess.run([sys.executable, TRACE_CHECKER, path],
                             capture_output=True, text=True)
    if checked.returncode != 0:
        return f"{path}: {checked.stderr.strip()}", None
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    return None, benchlib.span_totals(events)


def gate(records, trace):
    """Correctness gate over every run of one invocation. Returns the
    problems found and, for traced invocations, the (untraced, traced,
    span totals) triples."""
    problems = [f"run {r['index']} threw: {r['error']}"
                for r in records if r["kind"] == "error"]
    runs = [r for r in records if r["kind"] == "run"]
    if not runs:
        return problems + ["no run finished"], []
    want = runs[0]["outcome"]
    for r in runs:
        name = f"run {r['index']}{' (traced)' if r['traced'] else ''}"
        if r["audit_failed"] or not r["audit_checks"]:
            problems.append(f"{name}: {r['audit_failed']} of "
                            f"{r['audit_checks']} audit checks failed: "
                            f"{r['gate_detail']}")
        if not r["config_roundtrip"]:
            problems.append(f"{name}: config round trip: {r['gate_detail']}")
        diff = benchlib.first_outcome_difference(want, r["outcome"])
        if diff:
            problems.append(f"{name}: outcome differs from run 0: {diff}")
    slots = len(want["ledger"]["demand_j"])
    pairs = []
    for r in runs:
        if not r["traced"]:
            if len(r["slot_ms"]) != slots:
                problems.append(f"run {r['index']}: {len(r['slot_ms'])} slot "
                                f"timings for {slots} slots")
            continue
        problem, totals = check_trace(r["trace_file"])
        if problem:
            problems.append(problem)
            continue
        if totals["slots"] != slots:
            problems.append(f"{r['trace_file']}: {totals['slots']} slot "
                            f"spans for {slots} slots")
        untraced = [u for u in runs if u["index"] == r["index"] - 1]
        if untraced and not untraced[0]["traced"]:
            pairs.append((untraced[0], r, totals))
    if trace and not pairs:
        problems.append("no traced run passed")
    return problems, pairs


def measure(workload, seed, seconds, trace):
    """One benchmark invocation: returns the result object."""
    build()
    cmd = runner_command(workload, seed, seconds, trace)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUNNER_LIMIT_S)
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed the runner and waited for it.
        out = e.stdout or ""
        stdout = out.decode() if isinstance(out, bytes) else out
        stderr, code = f"runner timed out after {RUNNER_LIMIT_S} s", -1
    if stderr:
        log(stderr.rstrip())
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            # Only a line cut short by the timeout kill can get here;
            # the missing records fail the gate below.
            log(f"{workload}: unreadable runner output: {line[:80]}")
    problems, pairs = gate(records, trace)
    if code != 0:
        problems.append(f"runner exited with {code}")
    runs = [r for r in records if r["kind"] == "run"]
    process = [r for r in records if r["kind"] == "process"]
    if runs:
        attempted, failed = benchlib.operations(runs[0]["outcome"]["counts"])
    else:
        attempted, failed = 1, 1
    if problems:
        for p in problems:
            log(f"{workload}: GATE FAILED: {p}")
        return {"correct": False, "attempted": attempted,
                "failed": attempted, "metrics": {}}
    if trace:
        metrics = benchlib.per_layer(pairs)
    else:
        untraced = [r for r in runs if not r["traced"]]
        metrics = benchlib.end_to_end(untraced, process[0]["peak_rss_mb"])
    log(f"{workload}: {len(runs)} runs, every one audited and equal")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_table(workload, result):
    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2^31)")
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             args.trace)
            print_table(args.workload, result)
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = measure(workload, args.seed, args.seconds,
                                        args.trace)
            print_table(workload, results[workload])
        print(json.dumps(results))
        return 0
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Diff two bench reports (BENCH_*.json / *.jsonl) on (bench, metric).

The regression workflow in docs/performance.md: join the baseline and
current reports on the (bench, metric) pair, compare medians, and flag
anything that moved more than the threshold (10% by default — micro
medians on an idle box are stable to a few percent).

    python3 tools/gm_bench_diff.py BENCH_PR5.json bench-report.json
    python3 tools/gm_bench_diff.py --threshold=0.25 old.json new.json

Accepts both formats read_report understands: a gm_bench_merge array
or raw JSONL (one record per line). Only median rows are compared —
a record counts as a median when its bench name carries the
google-benchmark `_median` aggregate suffix (or `_median` embedded
before the `/iterations:N` suffix), or when its metric name ends in
`_median` (the convention the checked-in `*_pre_prN_median` baseline
records use). Mean/stddev/cv rows are ignored. Median rows present in
only one of the two files are not compared, but they are no longer
silently dropped either: they get their own "unmatched" section after
the delta table, so a renamed bench (baseline orphaned) or a new bench
(no baseline yet) is visible in the report. The unmatched section is
informational and never affects the exit code, so a baseline file with
extra benches still diffs cleanly against a filtered CI run.

It also reads whole-run results: files of perfbench/run.py last lines,
one line per invocation, in the order the invocations ran (alternate
the parent's and the change's so that line i of each file is a pair).

    python3 tools/gm_bench_diff.py --workload churn_week parent.jsonl \\
        change.jsonl

A single-workload line takes its workload from --workload NAME; a
`run.py --workload all` line names its own. Per workload the report
gives each metric's median on both sides, the parent's quartiles, the
relative delta and how many pairs moved down and up, grouped by layer
prefix (end-to-end metrics first). Directions and bounds come from
BENCHMARK.json, which the tool only reads: a move in the worse
direction is marked `worse`, and one past the metric's bound is
flagged.

Exit code is 0 even when deltas are flagged: shared CI runners are too
noisy to gate on wall-clock thresholds (docs/performance.md), so this
is a report, not a gate. --fail-on-regression flips that for local
A/B use.
"""

import argparse
import json
import os
import re
import statistics
import sys

_MEDIAN_BENCH = re.compile(r"_median(/iterations:\d+)?$")
# Directions and bounds of the perfbench metrics.
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_records(path):
    """Returns the list of record dicts in `path` (array or JSONL)."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(text)
    records = []
    for line in text.splitlines():
        line = line.strip().rstrip(",")
        if not line or line in "[]":
            continue
        records.append(json.loads(line))
    return records


def median_rows(records):
    """Maps (bench, metric) -> value for every median row."""
    rows = {}
    for r in records:
        bench = r.get("bench", "")
        metric = r.get("metric", "")
        if not (_MEDIAN_BENCH.search(bench) or metric.endswith("_median")):
            continue
        rows[(bench, metric)] = float(r.get("value", 0.0))
    return rows


def print_unmatched(base_only, cur_only):
    """Lists median rows found in only one report (never a gate)."""
    if not base_only and not cur_only:
        return
    print(f"\nunmatched ({len(base_only) + len(cur_only)} median rows "
          "in only one report):")
    for bench, metric in base_only:
        print(f"  baseline only: {bench} {metric}")
    for bench, metric in cur_only:
        print(f"  current only:  {bench} {metric}")


def is_perfbench(records):
    """True for perfbench/run.py result lines: a single-workload result
    carries "metrics"; a --workload all line maps names to results."""
    def one(r):
        return isinstance(r, dict) and "metrics" in r
    return bool(records) and all(
        one(r) or (isinstance(r, dict) and r and all(map(one, r.values())))
        for r in records)


def perfbench_results(records, workload):
    """Maps workload -> its results, in file order."""
    results = {}
    for r in records:
        if "metrics" in r:
            if not workload:
                raise ValueError("single-workload perfbench results need "
                                 "--workload NAME")
            results.setdefault(workload, []).append(r)
        else:
            for name, result in r.items():
                results.setdefault(name, []).append(result)
    return results


def load_benchmark():
    """Maps metric name -> (better, bound or None) from BENCHMARK.json."""
    with open(BENCHMARK, "r", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def layer_of(metric):
    """Per-layer metrics are named layer.what; the rest are end to end."""
    return metric.split(".", 1)[0] if "." in metric else ""


def value(result, metric):
    """The metric's value in one result, or None (an incorrect
    invocation reports no metrics)."""
    m = result.get("metrics", {}).get(metric)
    return None if m is None else m["value"]


def failed_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def diff_workload(name, base, cur, spec):
    """Prints one workload's table; returns the count of flagged rows
    (an incorrect invocation, a larger failed share, or a move past a
    metric's bound)."""
    flagged = 0
    base_ok = sum(1 for r in base if r.get("correct"))
    cur_ok = sum(1 for r in cur if r.get("correct"))
    share_base = statistics.median(failed_share(r) for r in base)
    share_cur = statistics.median(failed_share(r) for r in cur)
    print(f"== {name}: {len(base)} parent, {len(cur)} change invocations; "
          f"correct {base_ok}/{len(base)} -> {cur_ok}/{len(cur)}; "
          f"failed share {share_base:.4g} -> {share_cur:.4g}")
    if cur_ok < len(cur) or share_cur > share_base:
        flagged += 1
        print("  <-- incorrect invocation or more failed operations")

    names = sorted({m for r in base + cur for m in r.get("metrics", {})},
                   key=lambda m: (layer_of(m), m))
    width = max((len(m) for m in names), default=0)
    layer = None
    for metric in names:
        old = [v for v in (value(r, metric) for r in base) if v is not None]
        new = [v for v in (value(r, metric) for r in cur) if v is not None]
        if layer != layer_of(metric):
            layer = layer_of(metric)
            print(f"  [{layer or 'end to end'}]")
        if not old or not new:
            print(f"    {metric:<{width}}  only in the "
                  f"{'change' if new else 'parent'}")
            continue
        median_old = statistics.median(old)
        median_new = statistics.median(new)
        q1, _, q3 = (statistics.quantiles(old, n=4, method="inclusive")
                     if len(old) > 1 else (old[0],) * 3)
        delta = ((median_new - median_old) / median_old if median_old
                 else 0.0)
        # Line i of each file is a pair; skip pairs missing the metric.
        pairs = [(value(b, metric), value(c, metric))
                 for b, c in zip(base, cur)
                 if value(b, metric) is not None
                 and value(c, metric) is not None]
        down = sum(1 for o, n in pairs if n < o)
        up = sum(1 for o, n in pairs if n > o)
        mark = ""
        better, bound = spec.get(metric, (None, None))
        if better and median_new != median_old:
            worse = (median_new > median_old) == (better == "lower")
            mark = "worse" if worse else "better"
            if worse and bound is not None and abs(delta) > bound:
                flagged += 1
                mark += f"  <-- past the {bound:.0%} bound"
        quartiles = f"[{q1:.6g}, {q3:.6g}]"
        print(f"    {metric:<{width}}  {median_old:>12.6g} {quartiles:<24} "
              f"-> {median_new:>12.6g}  {delta:+8.1%}  "
              f"down {down}/{len(pairs)} up {up}/{len(pairs)}  "
              f"{mark}".rstrip())
    return flagged


def diff_perfbench(base_records, cur_records, args):
    spec = load_benchmark()
    try:
        base = perfbench_results(base_records, args.workload)
        cur = perfbench_results(cur_records, args.workload)
    except ValueError as e:
        print(f"gm_bench_diff: {e}", file=sys.stderr)
        return 2
    flagged = 0
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            side = "change" if name in cur else "parent"
            print(f"== {name}: only in the {side}")
            continue
        flagged += diff_workload(name, base[name], cur[name], spec)
    print(f"\n{flagged} flagged")
    return 1 if args.fail_on_regression and flagged else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="join two bench reports on (bench, metric) and "
                    "flag median deltas beyond the threshold")
    parser.add_argument("baseline", help="older report (the reference)")
    parser.add_argument("current", help="newer report to compare")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative delta that gets flagged "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any metric slowed down beyond "
                             "the threshold, or for perfbench results if "
                             "anything is flagged (off by default: CI "
                             "noise)")
    parser.add_argument("--workload",
                        help="workload of single-workload perfbench "
                             "result lines")
    args = parser.parse_args(argv)

    base_records = load_records(args.baseline)
    cur_records = load_records(args.current)
    if is_perfbench(base_records) and is_perfbench(cur_records):
        return diff_perfbench(base_records, cur_records, args)
    base = median_rows(base_records)
    cur = median_rows(cur_records)
    joined = sorted(set(base) & set(cur))
    base_only = sorted(set(base) - set(cur))
    cur_only = sorted(set(cur) - set(base))
    if not joined:
        print("no common (bench, metric) median rows; nothing to diff")
        print_unmatched(base_only, cur_only)
        return 0

    flagged = regressions = 0
    width = max(len(f"{b} {m}") for b, m in joined)
    for bench, metric in joined:
        old, new = base[(bench, metric)], cur[(bench, metric)]
        if old == 0.0:
            continue
        delta = (new - old) / old
        # Throughput counters are higher-is-better; everything else in
        # the reports is a duration.
        higher_is_better = "per_second" in metric or metric.endswith("_per_s")
        worse = delta < 0 if higher_is_better else delta > 0
        mark = ""
        if abs(delta) > args.threshold:
            flagged += 1
            mark = "  <-- slower" if worse else "  <-- faster"
            if worse:
                regressions += 1
        print(f"{bench + ' ' + metric:<{width}}  "
              f"{old:>14.3f} -> {new:>14.3f}  {delta:+8.1%}{mark}")

    print(f"\n{len(joined)} compared, {flagged} beyond "
          f"{args.threshold:.0%} ({regressions} slower)")
    print_unmatched(base_only, cur_only)
    return 1 if args.fail_on_regression and regressions else 0


if __name__ == "__main__":
    sys.exit(main())

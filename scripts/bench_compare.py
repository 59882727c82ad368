#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
                             [--metric auto|real_time|items_per_second]

Benchmarks are matched by name; only names present in both files are
compared. For each pair the script prints baseline, candidate, and the
speedup (candidate relative to baseline, >1 = faster), preferring
items_per_second (higher is better) and falling back to real_time (lower
is better). Exits non-zero if any benchmark regressed by more than the
threshold (default 10%), so it can gate a PR. Both files should come from
Release builds run on the same machine: the baseline from the parent commit,
the candidate from the change. scripts/ci_static_analysis.sh step 6 does
exactly that:

    ctest --test-dir PARENT_BUILD -R bench_sim_perf_json
    ctest --test-dir build-release -R bench_sim_perf_json
    scripts/bench_compare.py PARENT_BUILD/BENCH_sim_perf.json \
        build-release/BENCH_sim_perf.json

Aggregate entries (``*_mean``, ``*_median``, ``*_stddev``, ``*_cv``) are
skipped; raw repetition entries are averaged per name. Benchmarks present in
only one file are listed, not compared: a benchmark new or renamed in the
candidate is gated from the next change on.

``BM_AddressDecode`` is a drift probe: no simulator change touches the
address decoder, so when it differs from the baseline by more than 15% the
two runs most likely saw different load, and every ratio above carries that
error too. The script then prints a warning; it does not change the
verdict. Stdlib only.
"""

import argparse
import json
import sys

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")
DRIFT_PROBE = "BM_AddressDecode"
DRIFT_LIMIT = 0.15


def load(path):
    """name -> {metric: mean value} for the raw benchmark entries."""
    with open(path) as f:
        doc = json.load(f)
    acc = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if not name or name.endswith(AGGREGATE_SUFFIXES) or b.get("run_type") == "aggregate":
            continue
        entry = acc.setdefault(name, {"n": 0})
        entry["n"] += 1
        for metric in ("real_time", "cpu_time", "items_per_second"):
            if metric in b:
                entry[metric] = entry.get(metric, 0.0) + float(b[metric])
    for entry in acc.values():
        n = entry.pop("n")
        for k in list(entry):
            entry[k] /= n
    return acc


def pick_metric(requested, base, cand):
    if requested != "auto":
        return requested if requested in base and requested in cand else None
    for metric in ("items_per_second", "real_time"):
        if metric in base and metric in cand:
            return metric
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated slowdown, as a fraction (default 0.10)")
    ap.add_argument("--metric", default="auto",
                    choices=["auto", "real_time", "cpu_time", "items_per_second"])
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    common = [n for n in base if n in cand]
    if not common:
        print("bench_compare: no common benchmark names between the two files",
              file=sys.stderr)
        return 2

    regressions = []
    drift = None  # the drift probe's speedup, in the metric the table uses
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'candidate':>14}  {'speedup':>8}  metric")
    for name in common:
        metric = pick_metric(args.metric, base[name], cand[name])
        if metric is None:
            print(f"{name:<{width}}  {'-':>14}  {'-':>14}  {'n/a':>8}  (metric missing)")
            continue
        b, c = base[name][metric], cand[name][metric]
        if b <= 0 or c <= 0:
            continue
        # Normalize to "candidate speedup over baseline": for time metrics a
        # smaller candidate is faster; for rates a larger candidate is faster.
        speedup = (b / c) if metric.endswith("_time") else (c / b)
        if name == DRIFT_PROBE:
            drift = speedup
        flag = ""
        if speedup < 1.0 - args.threshold:
            regressions.append((name, metric, speedup))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b:>14.4g}  {c:>14.4g}  {speedup:>7.2f}x  {metric}{flag}")

    only_base = sorted(set(base) - set(cand))
    if only_base:
        print(f"note: {len(only_base)} benchmark(s) only in baseline (new code "
              f"may have renamed them): {', '.join(only_base[:5])}"
              + ("..." if len(only_base) > 5 else ""))
    only_cand = sorted(set(cand) - set(base))
    if only_cand:
        print(f"note: {len(only_cand)} benchmark(s) only in candidate, not gated "
              f"(no baseline yet): {', '.join(only_cand)}")

    if drift is not None and abs(drift - 1.0) > DRIFT_LIMIT:
        print(f"WARNING: {DRIFT_PROBE} shows a {drift:.2f}x speedup over its baseline; "
              f"no simulator change touches it, so the two files likely come from "
              f"different machines or load, and every ratio above carries that drift")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, metric, speedup in regressions:
            print(f"  {name}: {speedup:.2f}x ({metric})", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(common)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

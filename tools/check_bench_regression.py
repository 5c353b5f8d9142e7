#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Compares a fresh run against the committed baseline (captured on the CI
runner class) and fails when any benchmark regressed by more than
--max-ratio (default 2x — generous enough to absorb runner noise, tight
enough to catch a hot path falling off a cliff, e.g. an accidental
O(capacity) TLB flush or a per-access heap allocation).

Two kinds of input share the gate:
  * bench/gbench_sim_primitives microbench JSON (baseline
    bench/BENCH_PR9.json) — compared on cpu_time, the right metric for a
    single-threaded primitive.
  * tools/run_e2e_bench.py end-to-end figure JSON (baseline
    bench/BENCH_E2E.json) — rows named E2E_* are compared on
    real_time, because whole-figure wall-clock (including the
    epoch-parallel fan-out, where cpu_time exceeds wall time by design)
    is the user-facing quantity.

Independently of timing, every benchmark that exports an `allocs_per_op`
counter claims an allocation-free steady state; any non-trivial value fails
the gate regardless of how fast the run was, because host timing noise can
mask an allocation regression but the counter cannot.

Usage:
  check_bench_regression.py --baseline bench/BENCH_PR9.json --current out.json

Exit status: 0 clean, 1 regression(s), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_benchmarks(path: Path) -> dict[str, dict]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_regression: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from err
    out: dict[str, dict] = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    if not out:
        print(f"check_bench_regression: no benchmarks in {path}", file=sys.stderr)
        raise SystemExit(2)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed baseline JSON (bench/BENCH_PR9.json "
                             "or bench/BENCH_E2E.json)")
    parser.add_argument("--current", type=Path, required=True,
                        help="JSON from the run under test")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current/baseline cpu_time exceeds this")
    parser.add_argument("--max-allocs", type=float, default=0.01,
                        help="fail when allocs_per_op exceeds this")
    args = parser.parse_args(argv)

    base = load_benchmarks(args.baseline)
    cur = load_benchmarks(args.current)

    failures: list[str] = []
    checked = 0
    for name, b in sorted(cur.items()):
        allocs = b.get("allocs_per_op")
        if allocs is not None and allocs > args.max_allocs:
            failures.append(
                f"{name}: allocs_per_op={allocs:.4f} (steady state must not "
                f"allocate; limit {args.max_allocs})")
        if name not in base:
            print(f"  note: {name} has no baseline entry (new benchmark)")
            continue
        # E2E_* rows track whole-figure wall-clock: real_time is the
        # quantity the user waits for, and under the epoch-parallel fan-out
        # cpu_time legitimately exceeds it.
        metric = "real_time" if name.startswith("E2E_") else "cpu_time"
        base_ns = base[name][metric]
        cur_ns = b[metric]
        if base[name].get("time_unit") != b.get("time_unit"):
            failures.append(f"{name}: time_unit changed "
                            f"({base[name].get('time_unit')} -> {b.get('time_unit')})")
            continue
        checked += 1
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        marker = " <-- REGRESSION" if ratio > args.max_ratio else ""
        print(f"  {name}: {base_ns:.2f} -> {cur_ns:.2f} "
              f"{b.get('time_unit', 'ns')} ({ratio:.2f}x){marker}")
        if ratio > args.max_ratio:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"(limit {args.max_ratio}x)")

    missing = sorted(set(base) - set(cur))
    for name in missing:
        failures.append(f"{name}: present in baseline but missing from the run "
                        "(deleted benchmarks must also leave the baseline)")

    if failures:
        print(f"\ncheck_bench_regression: {len(failures)} failure(s):")
        for f in failures:
            print("  " + f)
        return 1
    print(f"\ncheck_bench_regression: clean ({checked} benchmarks vs baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

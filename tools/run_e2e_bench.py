#!/usr/bin/env python3
"""End-to-end figure wall-clock harness.

gbench_sim_primitives times simulator primitives; this tool times what the
user actually waits for: whole figure, table, ablation and example binaries
(fig3 through fig11, the five tables, the seven ablations and the six
examples, at their small/default configs, without arguments) from exec to
exit. It emits google-benchmark compatible JSON so
tools/check_bench_regression.py can gate the numbers against a committed
baseline exactly like the microbenches.

Two things are measured per target:
  * E2E_<target>/serial    — wall-clock with OOH_EPOCH_THREADS=1 (the old
    serial loop; this is the number comparable across PRs).
  * E2E_<target>/threads:N — wall-clock with N epoch workers (the
    epoch-parallel fan-out; on a multi-core runner this is the
    order-of-magnitude column, on a 1-core runner it documents the
    oversubscription cost instead).
  * E2E_all/serial         — the sum of every target's serial row: the
    wall-clock of regenerating every figure, table, ablation and example
    one binary at a time.

Independently of timing, the harness enforces EPOCH-1 at the figure level:
for every target that fans cells across the epoch pool, the serial and
parallel runs' stdout must be byte-identical. A mismatch is a determinism
bug and fails the run regardless of speed.

Wall-clock is the min over --repetitions runs: min is the right estimator
for "how fast can this machine execute this code" because every source of
interference only adds time. Each row also carries the target's user and
system CPU time (`user_ms`/`sys_ms`, medians over the same runs, from
getrusage(RUSAGE_CHILDREN) deltas), so a change that trades user time for
kernel time (page faults, mmap churn) shows up even when wall-clock does
not move. The regression gate reads only real_time.

Usage:
  run_e2e_bench.py --build-dir build-perf --out e2e_current.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# (binary under the build dir, fans cells across the epoch pool?). fig3-fig9
# and tables I, IV and VI fan their cells out through run_cells, so their
# serial and parallel stdout is compared. fig10 and fig11 run their
# multi-VM fleets on the epoch pool too, but take the worker count from
# --threads (default auto) rather than OOH_EPOCH_THREADS, so they get timed
# but not compared here (the golden ctests compare them at --threads 1 and
# 4, with their host wall-clock on stderr). Table III, table V, the
# ablations and the examples run serially.
TARGETS: list[tuple[str, bool]] = [
    ("bench/table1_ufd_proc_overhead", True),
    ("bench/table3_workload_footprints", False),
    ("bench/table4_formula_validation", True),
    ("bench/table5_basic_costs", False),
    ("bench/table6_metric_influence", True),
    ("bench/fig3_spml_breakdown", True),
    ("bench/fig4_micro_overhead", True),
    ("bench/fig5_boehm_tracker", True),
    ("bench/fig6_boehm_tracked", True),
    ("bench/fig7_criu_mw", True),
    ("bench/fig8_criu_checkpoint", True),
    ("bench/fig9_criu_tracked", True),
    ("bench/fig10_scalability_tracker", False),
    ("bench/fig11_scalability_tracked", False),
    ("bench/ablation_collect_period", False),
    ("bench/ablation_quantum", False),
    ("bench/ablation_ring_capacity", False),
    ("bench/ablation_spp_guard", False),
    ("bench/ablation_swap_writeback", False),
    ("bench/ablation_uaf_sweep", False),
    ("bench/ablation_wss", False),
    ("examples/quickstart", False),
    ("examples/checkpoint_restore", False),
    ("examples/gc_demo", False),
    ("examples/live_migration", False),
    ("examples/secure_allocator", False),
    ("examples/run_app", False),
]


class Run(NamedTuple):
    """One timed run: wall and child CPU seconds, and the stdout bytes."""

    wall: float
    user: float
    sys: float
    out: bytes


def run_once(exe: Path, threads: int) -> Run:
    """Run the binary once, timing wall-clock and its CPU time."""
    env = dict(os.environ, OOH_EPOCH_THREADS=str(threads))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.run([str(exe)], env=env, capture_output=True)
    elapsed = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"run_e2e_bench: {exe.name} exited "
                         f"{proc.returncode} (threads={threads})")
    return Run(elapsed, after.ru_utime - before.ru_utime,
               after.ru_stime - before.ru_stime, proc.stdout)


def bench_entry(name: str, runs: list[Run]) -> dict:
    ms = min(r.wall for r in runs) * 1e3
    return {
        "name": name,
        "run_type": "iteration",
        "iterations": 1,
        # Whole-process wall-clock is the tracked quantity; cpu_time is
        # filled with the same value so generic gbench tooling stays happy,
        # but check_bench_regression.py compares real_time for E2E_ rows.
        "real_time": ms,
        "cpu_time": ms,
        "time_unit": "ms",
        "user_ms": statistics.median(r.user for r in runs) * 1e3,
        "sys_ms": statistics.median(r.sys for r in runs) * 1e3,
    }


def report(entry: dict, runs: list[Run]) -> None:
    print(f"  {entry['name']}: {entry['real_time']:.0f} ms "
          f"(min of {len(runs)}; user {entry['user_ms']:.0f} ms, "
          f"sys {entry['sys_ms']:.0f} ms)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=Path("build"),
                        help="CMake build tree containing bench/ binaries")
    parser.add_argument("--out", type=Path, required=True,
                        help="output JSON path (gbench-compatible)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="timed runs per target; min wall-clock is kept")
    parser.add_argument("--threads", type=int, default=4,
                        help="epoch worker count for the parallel column")
    args = parser.parse_args(argv)

    benchmarks: list[dict] = []
    for binary, fans_out in TARGETS:
        exe = args.build_dir / binary
        target = exe.name
        if not exe.exists():
            raise SystemExit(f"run_e2e_bench: {exe} not built "
                             f"(cmake --build {args.build_dir} --target {target})")

        serial = [run_once(exe, threads=1)
                  for _ in range(max(1, args.repetitions))]
        entry = bench_entry(f"E2E_{target}/serial", serial)
        benchmarks.append(entry)
        report(entry, serial)

        if not fans_out:
            continue

        # EPOCH-1 at the figure level: the parallel run must emit the exact
        # bytes of the serial run.
        par = [run_once(exe, threads=args.threads)
               for _ in range(max(1, args.repetitions))]
        if par[-1].out != serial[-1].out:
            raise SystemExit(
                f"run_e2e_bench: {target} stdout differs between "
                f"OOH_EPOCH_THREADS=1 and ={args.threads} — EPOCH-1 "
                "violated (worker count leaked into figure output)")
        print(f"  E2E_{target}: serial vs threads={args.threads} "
              "stdout byte-identical")
        entry = bench_entry(f"E2E_{target}/threads:{args.threads}", par)
        benchmarks.append(entry)
        report(entry, par)

    serial_rows = [b for b in benchmarks if b["name"].endswith("/serial")]
    total = {
        "name": "E2E_all/serial",
        "run_type": "iteration",
        "iterations": 1,
        "real_time": sum(b["real_time"] for b in serial_rows),
        "cpu_time": sum(b["cpu_time"] for b in serial_rows),
        "time_unit": "ms",
        "user_ms": sum(b["user_ms"] for b in serial_rows),
        "sys_ms": sum(b["sys_ms"] for b in serial_rows),
    }
    benchmarks.append(total)
    print(f"  {total['name']}: {total['real_time']:.0f} ms (sum of "
          f"{len(serial_rows)} serial rows; user {total['user_ms']:.0f} ms, "
          f"sys {total['sys_ms']:.0f} ms)")

    doc = {
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "executable": "tools/run_e2e_bench.py",
            "num_cpus": os.cpu_count(),
            "epoch_threads": args.threads,
        },
        "benchmarks": benchmarks,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"run_e2e_bench: wrote {len(benchmarks)} entries to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

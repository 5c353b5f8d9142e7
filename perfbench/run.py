#!/usr/bin/env python3
"""Build and run the OoH simulator's in-process layered benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <gc_churn|ckpt_kv|migrate_scan> \\
      --seed <n> --seconds <n> --trace <0|1> [--size <ops per session>]

The benchmark is a C++ program (perfbench/*.cpp) that links the simulator's
libraries, built from ../src into .bench_build/perfbench with a Release
configuration; a run that finds it up to date only checks the build. Build
output goes to stderr. The program's standard output is passed through: a
human-readable report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. A traced run (--trace 1) also
writes the spans as Chrome trace-event JSON to
.bench_build/perfbench-trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("gc_churn", "ckpt_kv", "migrate_scan")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text}")
    return value


def build() -> Path:
    """Configure (once) and build the benchmark; return the executable."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {ROOT / 'src'}; "
                         "run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=non_negative)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", type=non_negative,
                        help="operations per technique session (default: the "
                             "workload's own)")
    args = parser.parse_args(argv)

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    if args.trace:
        trace = BUILD_DIR.parent / f"perfbench-trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Tests of the benchmark itself: the simulated-statistics digest and the CLI.

Run from the repository root (builds the benchmark first):
  python3 perfbench/test_perfbench.py

The digest hashes every vCPU's virtual clock and event counters at the end of
each timed phase plus every operation's simulated result. A change meant
only to speed the simulator up must leave it unchanged, which is only a
useful check if the digest is stable for one seed, blind to tracing, and
sensitive to the inputs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

EXE: Path | None = None


def run_exe(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([str(EXE), *args], capture_output=True, text=True, timeout=300)


def digest(workload: str, seed: int, trace: int) -> str:
    """One small run's digest; the run itself must pass its checks."""
    out = run_exe("--workload", workload, "--seed", str(seed), "--size", "4",
                  "--seconds", "0", "--trace", str(trace))
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} seed {seed}: {out.stdout}")
    match = re.search(r"digest (0x[0-9a-f]{16}) \(identical in every pass\)", out.stdout)
    if match is None:
        raise AssertionError(f"{workload}: passes disagree or no digest: {out.stdout}")
    return match.group(1)


class DigestTest(unittest.TestCase):
    def test_same_seed_gives_same_digest(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 7, 0), digest(workload, 7, 0))

    def test_tracing_leaves_digest_unchanged(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 7, 0), digest(workload, 7, 1))

    def test_different_seeds_give_different_streams(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(digest(workload, 7, 0), digest(workload, 8, 0))


class CliTest(unittest.TestCase):
    def assert_usage_error(self, *args: str):
        out = run_exe(*args)
        self.assertEqual(out.returncode, 2, out.stderr)
        self.assertEqual(out.stdout, "")
        self.assertIn("usage:", out.stderr)

    def test_rejects_bad_arguments(self):
        good = ["--workload", "gc_churn", "--seed", "1", "--seconds", "0"]
        self.assert_usage_error("--workload", "gc-churn", "--seed", "1")
        self.assert_usage_error("--workload", "gc_churn")  # no seed
        self.assert_usage_error(*good[:3], "12x")
        self.assert_usage_error(*good[:3], "-1")
        self.assert_usage_error(*good, "--size", "0")
        self.assert_usage_error(*good, "--trace", "2")
        self.assert_usage_error(*good, "--seconds", "1.5")
        self.assert_usage_error(*good, "--gran", "4k")
        self.assert_usage_error(*good, "--size")

    def test_runner_rejects_bad_arguments(self):
        runner = Path(bench.__file__)
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "ckpt_kv", "--seed", "x", "--seconds", "1", "--trace", "0"]):
            out = subprocess.run([sys.executable, str(runner), *args], capture_output=True,
                                 text=True, timeout=60)
            self.assertEqual(out.returncode, 2, out.stderr)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    EXE = bench.build()
    unittest.main()

#!/usr/bin/env python3
"""Domain lint for the OoH simulator: machine-state mutation discipline.

The coherence oracle (src/sim/check/) can only vouch for invariants if
machine state is mutated through the sanctioned paths it audits. This lint
freezes those paths: each rule names a pattern that mutates hardware-visible
state (EPT/PTE flags, TLB fills, VMCS fields, event counters, the virtual
clock, the page-track notifier chain) and the closed set of files allowed
to contain it. New code must either route through an existing mutator or
extend the whitelist in the same change that documents the new invariant
(docs/invariants.md). A rule may instead carry a scope, the files where
its pattern is forbidden outright (no hash containers on the dense
per-page paths).

Scans src/ only — tests deliberately corrupt state to exercise the oracle,
and bench/ is read-only by construction.

Exit status: 0 clean, 1 violations (one per line: path:lineno: rule: text).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: re.Pattern
    allowed: frozenset[str]  # repo-relative files allowed to match
    why: str
    # When set, a match is fine if this marker appears in a comment on the
    # matching line or the line above it (e.g. `// relaxed-ok: <reason>`):
    # the rule demands an adjacent justification rather than a whitelist.
    justify_marker: str | None = None
    # When set, the rule applies only to files whose repo-relative path
    # starts with one of these prefixes (a forbidden zone, not a whitelist).
    scope: tuple[str, ...] | None = None


def rule(name: str, pattern: str, allowed: list[str], why: str,
         justify_marker: str | None = None,
         scope: list[str] | None = None) -> Rule:
    return Rule(name, re.compile(pattern), frozenset(allowed), why,
                justify_marker, tuple(scope) if scope is not None else None)


RULES: list[Rule] = [
    rule(
        "ept-pte-flag-write",
        r"->\s*(dirty|accessed|writable|present|spp)\s*=",
        [
            # The walk circuit and the subsystems modelling real hardware /
            # kernel behaviour (dirty-flag re-arm, WP, swap-out, CoW).
            "src/sim/mmu.cpp",
            "src/sim/ept.cpp",
            "src/sim/page_table.cpp",
            "src/hypervisor/hypervisor.cpp",
            "src/guest/swap.cpp",
            "src/guest/ooh_module.cpp",
            "src/guest/procfs.cpp",
            "src/ooh/trackers.cpp",  # wp backend flips EPT write permission
        ],
        "EPT/PTE permission and dirty/accessed flags may only change in the "
        "page-walk circuit and the whitelisted re-arm paths; anywhere else "
        "bypasses TLB shootdown and breaks TLB-2/TLB-3/ACC-1.",
    ),
    rule(
        "tlb-fill",
        r"\btlb\b[^\n]*\.insert\s*\(",
        ["src/sim/mmu.cpp"],
        "Only the MMU walk may install translations; a fill anywhere else "
        "caches state never derived from the tables (TLB-1).",
    ),
    rule(
        "vmcs-field-write",
        r"\.write\s*\(\s*(sim::)?VmcsField::",
        [
            "src/sim/vcpu.cpp",
            "src/sim/page_track.cpp",
            "src/hypervisor/hypervisor.cpp",
        ],
        "PML/EPML VMCS fields (buffer address, index, controls) are owned by "
        "the logging circuits and the hypervisor session code; stray writes "
        "desynchronise PML-1/PML-4/EPML-1.",
    ),
    rule(
        "direct-counter-bump",
        r"\bcounters\.add\s*\(",
        ["src/sim/exec_context.hpp"],
        "Event accounting must go through ExecContext::count() so counters "
        "stay attributable to the owning vCPU timeline.",
    ),
    rule(
        "direct-clock-advance",
        r"\bclock\.(advance|reset)\s*\(",
        ["src/sim/exec_context.hpp"],
        "Virtual time must be charged via ExecContext::charge_us/charge_ns; "
        "direct clock manipulation breaks monotonicity auditing (CLK-1).",
    ),
    rule(
        "walk-cache-mutation",
        r"\b(invalidate_walk_cache|debug_skew_walk_cache)\s*\(",
        [
            # The radix table owns the memo; the EPT and guest-PT wrappers
            # forward the shootdown from their unmap paths.
            "src/sim/radix.hpp",
            "src/sim/page_table.hpp",
            "src/sim/page_table.cpp",
            "src/sim/ept.hpp",
            "src/sim/ept.cpp",
        ],
        "The MRU walk-cache memo is invalidated only by the table-structure "
        "mutators that free or zero leaves (unmap paths); invalidating it "
        "elsewhere hides bugs WALK-1 exists to catch, and skewing it is a "
        "test-only corruption primitive.",
    ),
    rule(
        "raw-page-constant",
        r"(?<![\w'])4096(?![\w'])|>>\s*12\b|<<\s*12\b"
        r"|0x[Ff]{3}\b|0x1[Ff]{5}\b",
        ["src/base/types.hpp"],
        "Page geometry must come from base/types.hpp (kPageSize, kPageShift, "
        "page_floor/page_index and the PageGran helpers); a hand-rolled 4096, "
        ">> 12 or 0xFFF mask silently hard-codes 4 KiB granularity and "
        "bypasses the multi-granularity translation helpers. A genuine "
        "non-page constant may opt out with a trailing comment containing "
        "lint: allow(raw-page-constant).",
    ),
    rule(
        "notifier-registration",
        r"\b(un)?register_notifier\s*\(",
        [
            "src/sim/page_track.hpp",
            "src/sim/page_track.cpp",
            "src/sim/vcpu.cpp",
            "src/hypervisor/hypervisor.cpp",
            "src/guest/kernel.cpp",
            "src/ooh/trackers.cpp",
            "src/ooh/tracker.cpp",  # adaptive sessions' WSS estimator
        ],
        "Page-track consumers may only (un)register through the subsystems "
        "the registry audit knows about; others corrupt chain-order "
        "guarantees (REG-1/REG-2).",
    ),
    rule(
        "raw-sync-primitive",
        r"\bstd::(atomic\b|atomic<|atomic_|mutex\b|shared_mutex\b"
        r"|recursive_mutex\b|condition_variable\b|thread\b|jthread\b"
        r"|lock_guard\b|scoped_lock\b|unique_lock\b)",
        [
            # The seam itself, the explorer that instruments it (whose own
            # engine must not be instrumented), and the one sanctioned
            # host-thread-spawning call site, the worker pool (the sync seam
            # wraps state, not thread lifetime).
            "src/base/sync.hpp",
            "src/sim/check/sched_explorer.hpp",
            "src/sim/check/sched_explorer.cpp",
            "src/sim/epoch/epoch_pool.cpp",
        ],
        "Cross-thread state must live behind sync::Atomic / sync::Mutex / "
        "sync::SpinGuard (src/base/sync.hpp, invariant SYNC-1): raw std "
        "primitives are invisible to the schedule explorer and to the "
        "memory-order audit, so a race through them can never be flagged.",
    ),
    rule(
        "radix-node-allocation",
        r"make_unique<\s*(L1|L2|L3|Leaf|HugeSlab)\b|\bnew\s+(L1|L2|L3|Leaf|HugeSlab)\b",
        ["src/sim/radix.hpp"],
        "Radix/EPT paging-structure nodes are arena-allocated (base/arena.hpp "
        "bulk prefault, rewound on clear()) so steady-state translation "
        "allocates nothing; a raw new/make_unique of a node type reintroduces "
        "per-node heap traffic and breaks the zero-steady-state-allocation "
        "guarantee the gbench harness pins.",
    ),
    rule(
        "relaxed-needs-justification",
        r"\bmemory_order_relaxed\b",
        [],
        "Every memory_order_relaxed must carry an adjacent `// relaxed-ok: "
        "<reason>` comment (same line or the line above) saying why no "
        "happens-before edge is needed there — an unjustified relaxed is "
        "how the missing-release bug class (RACE-1) enters the tree.",
        justify_marker="relaxed-ok",
    ),
    rule(
        "hash-container-on-page-path",
        r"\bstd::unordered_(map|set|multimap|multiset)\b",
        [],
        "The per-page paths of the CRIU image, the Boehm GC object table and "
        "the guest process (VMAs, truth ledger) are dense, address-ordered "
        "arrays. A hash container there makes outputs depend on the "
        "standard library's iteration order, which the ROADMAP's "
        "correctness aim forbids for anything a figure prints, and puts a "
        "hash back on a per-page hot path.",
        scope=[
            "src/trackers/criu/",
            "src/trackers/boehmgc/",
            "src/guest/process.",
        ],
    ),
    rule(
        "layer-include",
        r'#\s*include\s+"(ooh|trackers|workloads|model)/',
        [],
        "The machine layers (base, sim, guest, hypervisor) sit below the "
        "OoH library, its consumers, the workloads and the analytical model. "
        "An include upward makes a lower layer depend on code built on top "
        "of it: the layering stops being a tree, and a library-side feature "
        "can leak into the machine it is supposed to observe.",
        scope=[
            "src/base/",
            "src/sim/",
            "src/guest/",
            "src/hypervisor/",
        ],
    ),
]

LINE_COMMENT = re.compile(r"//.*$")

# Per-line escape hatch: a comment containing `lint: allow(rule-name)`
# exempts that line from exactly that rule (the marker lives in the comment,
# which is stripped before pattern matching, so it can never satisfy a rule
# pattern itself).
ALLOW_MARKER = re.compile(r"lint:\s*allow\(([\w-]+)\)")


def strip_comment(line: str) -> str:
    return LINE_COMMENT.sub("", line)


@dataclass
class Report:
    violations: list[str] = field(default_factory=list)

    def add(self, path: Path, lineno: int, r: Rule, text: str) -> None:
        self.violations.append(f"{path}:{lineno}: [{r.name}] {text.strip()}")


def lint_file(path: Path, rel: str, report: Report) -> None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        report.violations.append(f"{path}: unreadable: {err}")
        return
    for lineno, raw in enumerate(lines, start=1):
        line = strip_comment(raw)
        allowed_here = set(ALLOW_MARKER.findall(raw))
        for r in RULES:
            if r.scope is not None and not rel.startswith(r.scope):
                continue
            if (not r.pattern.search(line) or rel in r.allowed
                    or r.name in allowed_here):
                continue
            if r.justify_marker and justified(lines, lineno, r.justify_marker):
                continue
            report.add(path, lineno, r, raw)


def justified(lines: list[str], lineno: int, marker: str) -> bool:
    """Is `marker` on the matching line or in the comment block above it?

    The block may be separated from the match by continuation lines of the
    same statement (a multi-line call), so we walk upward through comment
    lines and lines that carry a trailing comment, bounded to keep the
    justification adjacent rather than somewhere far up the file.
    """
    if marker in lines[lineno - 1]:
        return True
    for back in range(2, 8):
        i = lineno - back
        if i < 0:
            return False
        raw = lines[i]
        if "//" not in raw:
            return False
        if marker in raw:
            return True
        # keep walking only while we are inside a pure comment block
        if strip_comment(raw).strip():
            return False
    return False


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the tree containing this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(f"{r.name}:\n  pattern: {r.pattern.pattern}")
            if r.scope is not None:
                print("  applies to:", ", ".join(r.scope))
            print("  allowed:", ", ".join(sorted(r.allowed)) or "(nowhere)")
            print(f"  why: {r.why}\n")
        return 0

    src = args.root / "src"
    if not src.is_dir():
        print(f"lint_domain: no src/ under {args.root}", file=sys.stderr)
        return 2

    report = Report()
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".cpp", ".hpp"}:
            continue
        rel = path.relative_to(args.root).as_posix()
        lint_file(path, rel, report)

    if report.violations:
        print(f"lint_domain: {len(report.violations)} violation(s):")
        for v in report.violations:
            print("  " + v)
        print("\nEither route the mutation through an existing sanctioned "
              "mutator, or extend the whitelist in tools/lint_domain.py and "
              "document the new invariant in docs/invariants.md.")
        return 1
    print(f"lint_domain: clean ({len(RULES)} rules over src/)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

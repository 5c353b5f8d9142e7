// Machine snapshot/restore property tests (invariant SNAP-1): a restored
// machine is indistinguishable from the original — byte-identical canonical
// state stream, identical continued execution, and a full coherence audit
// passes over it. Parameterized across the tracker backends x EPT
// granularity configurations so every serialized subsystem (guest PTs in
// both backends, huge leaves, eager-split state, PML/EPML rings, uffd-free
// quiescent state) gets exercised.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "base/rng.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/check/invariant.hpp"
#include "sim/snapshot/machine_image.hpp"

namespace ooh::lib {
namespace {

enum class Gran { k4k, k2m, k2mSplit };

std::string gran_label(Gran g) {
  switch (g) {
    case Gran::k4k: return "4k";
    case Gran::k2m: return "2m";
    case Gran::k2mSplit: return "2m_split";
  }
  return "?";
}

std::string tech_label(Technique t) {
  switch (t) {
    case Technique::kProc: return "proc";
    case Technique::kUfd: return "ufd";
    case Technique::kSpml: return "spml";
    case Technique::kEpml: return "epml";
    case Technique::kWp: return "wp";
    case Technique::kOracle: return "oracle";
  }
  return "?";
}

TestBedOptions bed_options(Gran g) {
  TestBedOptions opts;
  opts.host_mem_bytes = 2 * kGiB;
  opts.vm_mem_bytes = 256 * kMiB;
  opts.ept_huge = g != Gran::k4k;
  opts.eager_split = g == Gran::k2mSplit;
  return opts;
}

/// Drive the bed through a tracked run and leave it quiescent: a realistic
/// mid-experiment machine (faulted translations, dirty flags, ring history,
/// per-vCPU time) at a legal snapshot point.
void advance(TestBed& bed, Technique tech, u64 seed) {
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 96;
  // data-backed so writes materialise frame contents: the round-trip then
  // also covers the CoW frame capture and per-frame digests.
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  auto tracker = make_tracker(tech, k, proc);
  RunOptions opts;
  opts.collect_period = usecs(200);
  const RunResult r = run_tracked(
      k, proc,
      [=](guest::Process& p) {
        Rng rng(seed);
        for (u64 i = 0; i < pages * 3; ++i) {
          p.touch_write(base + rng.below(pages) * kPageSize);
        }
      },
      tracker.get(), opts);
  tracker->shutdown();
  // Tracker shutdown untracks the process but deliberately leaves the OoH
  // module resident (one module per guest); an epoch boundary additionally
  // requires the module unloaded — part of the quiescence contract.
  k.unload_ooh_module();
  ASSERT_GT(r.truth_pages, 0u);
}

class SnapshotRoundTrip
    : public ::testing::TestWithParam<std::tuple<Technique, Gran>> {};

TEST_P(SnapshotRoundTrip, RestoredStateStreamIsByteIdentical) {
  const auto [tech, gran] = GetParam();
  TestBed bed(bed_options(gran));
  advance(bed, tech, /*seed=*/0x5eed + static_cast<u64>(tech));

  snapshot::MachineSnapshot snap = bed.save();
  EXPECT_GT(snap.stream_bytes(), 0u);

  // Restore in place and re-serialize: the canonical stream (which covers
  // every subsystem, frame digests included) must not change by one byte.
  bed.restore(snap);
  const snapshot::MachineSnapshot again = bed.save();
  ASSERT_EQ(snap.bytes.size(), again.bytes.size());
  EXPECT_TRUE(snap.bytes == again.bytes)
      << tech_label(tech) << "/" << gran_label(gran)
      << ": restored machine serialized differently";

  // SNAP-1 closes with the oracle's word, not just stream equality: the
  // restored machine passes the full cross-layer coherence audit.
  EXPECT_NO_THROW(bed.checker().audit_all());
}

TEST_P(SnapshotRoundTrip, RestoredMachineContinuesIdentically) {
  const auto [tech, gran] = GetParam();
  const u64 seed = 0xabcd + static_cast<u64>(tech);

  TestBed bed(bed_options(gran));
  advance(bed, tech, seed);
  const snapshot::MachineSnapshot boundary = bed.save();

  // Run the same second phase twice from the same boundary: once on the
  // original timeline, once after rewinding. Everything — virtual time,
  // counters, tables, ring history, frame contents — must replay exactly.
  advance(bed, tech, seed ^ 0xff);
  const std::vector<u8> first = bed.state_bytes();

  bed.restore(boundary);
  advance(bed, tech, seed ^ 0xff);
  const std::vector<u8> second = bed.state_bytes();

  EXPECT_TRUE(first == second)
      << tech_label(tech) << "/" << gran_label(gran)
      << ": replay from restored boundary diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllGrans, SnapshotRoundTrip,
    ::testing::Combine(::testing::Values(Technique::kProc, Technique::kUfd,
                                         Technique::kSpml, Technique::kEpml,
                                         Technique::kWp),
                       ::testing::Values(Gran::k4k, Gran::k2m, Gran::k2mSplit)),
    [](const ::testing::TestParamInfo<SnapshotRoundTrip::ParamType>& info) {
      return tech_label(std::get<0>(info.param)) + "_" +
             gran_label(std::get<1>(info.param));
    });

TEST(Snapshot, SaveRefusesNonQuiescentMachine) {
  TestBed bed(bed_options(Gran::k4k));
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  auto tracker = make_tracker(Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  proc.touch_write(base);
  // Mid-session (OoH module loaded, rings armed) is not an epoch boundary.
  EXPECT_THROW((void)bed.save(), std::logic_error);
  tracker->shutdown();
  // Shutdown alone is not quiescent either: the module stays resident.
  EXPECT_THROW((void)bed.save(), std::logic_error);
  k.unload_ooh_module();
  EXPECT_NO_THROW((void)bed.save());
}

TEST(Snapshot, RestoreRejectsStructuralMismatch) {
  TestBed small(bed_options(Gran::k4k));
  TestBedOptions big = bed_options(Gran::k4k);
  big.host_mem_bytes = 4 * kGiB;
  TestBed other(big);
  const snapshot::MachineSnapshot snap = small.save();
  EXPECT_THROW(other.restore(snap), std::runtime_error);
}

TEST(Snapshot, RestoreRejectsCorruptedStream) {
  TestBed bed(bed_options(Gran::k4k));
  advance(bed, Technique::kProc, 7);
  snapshot::MachineSnapshot snap = bed.save();
  snap.bytes.resize(snap.bytes.size() / 2);  // truncation
  EXPECT_THROW(bed.restore(snap), std::runtime_error);
}

// SNAP-1 mutation test: corrupting the restored machine's EPT must not go
// unnoticed — the coherence oracle (not the snapshot code) is the component
// under test here. A restore that silently produced this state would be
// caught the same way.
TEST(Snapshot, CoherenceOracleFlagsCorruptedRestoredEpt) {
  TestBed bed(bed_options(Gran::k4k));
  advance(bed, Technique::kProc, 11);
  const snapshot::MachineSnapshot snap = bed.save();
  bed.restore(snap);

  // Corrupt one EPT leaf behind the oracle's back: point a mapping at an
  // out-of-range HPA, the kind of damage a bad restore would inflict.
  Gpa victim = 0;
  bed.vm().ept().for_each_present([&](Gpa gpa, const sim::EptEntry&) {
    if (victim == 0) victim = gpa;
  });
  ASSERT_NE(victim, 0u) << "no mapped page to corrupt";
  bed.vm().ept().entry(victim)->hpa_page =
      bed.machine().pmem.total_frames() * kPageSize + kPageSize;
  EXPECT_THROW(bed.checker().audit_frames(), check::InvariantViolation);
}

// FRAME-4: materialised frame contents claimed by nothing and shared with
// no snapshot are orphaned bytes; the ownership audit must say so. With a
// live snapshot referencing the machine's frames, the same audit accepts
// the shared-read-only state (CoW pinning is not a leak).
TEST(Snapshot, FrameAuditDistinguishesSharedFromOrphanedBacking) {
  TestBed bed(bed_options(Gran::k4k));
  advance(bed, Technique::kProc, 13);

  // Snapshot pins every backed frame shared-read-only; the audit passes.
  const snapshot::MachineSnapshot snap = bed.save();
  ASSERT_GT(bed.machine().pmem.shared_frames(), 0u);
  EXPECT_NO_THROW(bed.checker().audit_frames());

  // Restored machines hold CoW-installed (shared) frames: still clean.
  bed.restore(snap);
  EXPECT_NO_THROW(bed.checker().audit_frames());

  // Materialise contents for a frame no mapping, PML buffer, or snapshot
  // accounts for: FRAME-4 must fire.
  const Hpa orphan = (bed.machine().pmem.total_frames() - 1) * kPageSize;
  (void)bed.machine().pmem.frame_data(orphan);
  try {
    bed.checker().audit_frames();
    FAIL() << "FRAME-4 did not fire on an orphaned backed frame";
  } catch (const check::InvariantViolation& v) {
    EXPECT_EQ(v.id, "FRAME-4");
  }
}

TEST(Snapshot, SnapshotSharingIsCopyOnWrite) {
  TestBed bed(bed_options(Gran::k4k));
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(4 * kPageSize, /*data_backed=*/true);
  proc.write_u64(base, 0x1111);

  const snapshot::MachineSnapshot snap = bed.save();
  const std::vector<u8> at_save = snap.bytes;

  // Writing after the capture must clone, not mutate, the captured image.
  proc.write_u64(base, 0x2222);
  EXPECT_EQ(proc.read_u64(base), 0x2222u);

  const u32 pid = proc.pid();
  bed.restore(snap);
  // Serialize before touching guest memory: a read charges virtual time and
  // fills the TLB, which would legitimately perturb the stream.
  EXPECT_TRUE(bed.state_bytes() == at_save);
  // restore() rebuilds the guest's processes; `proc` died with the old ones.
  guest::Process* restored = bed.kernel().find(pid);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->read_u64(base), 0x1111u) << "snapshot saw a post-capture write";
}

}  // namespace
}  // namespace ooh::lib

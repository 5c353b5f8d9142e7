// Mutation self-test for the machine-state coherence oracle (sim/check):
// seed deliberate corruptions across every layer the checker audits — stale
// TLB entries, out-of-range PML indices, misaligned or duplicated log
// entries, unaccounted EPT flags, double-mapped guest frames, unregistered
// hardware circuits, backwards clocks, leaked, double-owned and orphaned-
// backing host frames — and assert the oracle flags each one with the right
// invariant ID. The clean-machine tests pin the zero-false-positive and
// zero-virtual-time guarantees the figure pipelines rely on.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "guest/kernel.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/migration.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/check/coherence.hpp"

namespace ooh {
namespace {

void expect_violation(const std::function<void()>& audit, const std::string& id) {
  try {
    audit();
    ADD_FAILURE() << "expected InvariantViolation " << id << ", none thrown";
  } catch (const check::InvariantViolation& v) {
    EXPECT_EQ(v.id, id) << v.what();
  }
}

class CoherenceMutationTest : public ::testing::Test {
 protected:
  CoherenceMutationTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(64 * kMiB)),
        kernel_(hv_, vm_),
        checker_(machine_, hv_) {
    checker_.attach_kernel(vm_.id(), kernel_);
  }

  /// Map and dirty `pages` pages in a fresh process; returns (proc, base).
  std::pair<guest::Process*, Gva> dirty_pages(u64 pages) {
    guest::Process& p = kernel_.create_process();
    const Gva base = p.mmap(pages * kPageSize);
    for (u64 i = 0; i < pages; ++i) p.touch_write(base + i * kPageSize);
    return {&p, base};
  }

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  guest::GuestKernel kernel_;
  check::CoherenceChecker checker_;
};

// ---- clean machine: no false positives, no cost -----------------------------

TEST_F(CoherenceMutationTest, CleanMachinePassesEveryAudit) {
  auto [proc, base] = dirty_pages(16);
  hv_.enable_pml_for_hyp(vm_);
  for (u64 i = 0; i < 8; ++i) proc->touch_write(base + i * kPageSize);
  EXPECT_NO_THROW(checker_.audit_all());
  (void)hv_.harvest_hyp_dirty(vm_);
  EXPECT_NO_THROW(checker_.audit_all());
  hv_.disable_pml_for_hyp(vm_);
  EXPECT_NO_THROW(checker_.audit_all());
  EXPECT_GE(checker_.audits_run(), 6u);
}

TEST_F(CoherenceMutationTest, CleanMigrationPassesEveryAudit) {
  auto [proc, base] = dirty_pages(32);
  hv::MigrationEngine engine(hv_);
  hv::MigrationOptions opts;
  opts.max_rounds = 3;
  const auto rep = engine.migrate(
      vm_, [&] { for (u64 i = 0; i < 8; ++i) proc->touch_write(base + i * kPageSize); },
      opts);
  EXPECT_GE(rep.rounds, 1u);
  EXPECT_NO_THROW(checker_.audit_all());
}

TEST_F(CoherenceMutationTest, AuditChargesZeroVirtualTimeAndCountsNoEvents) {
  auto [proc, base] = dirty_pages(8);
  (void)proc;
  (void)base;
  hv_.enable_pml_for_hyp(vm_);
  const VirtDuration before = vm_.ctx().clock.now();
  const EventCounters counters_before = vm_.ctx().counters;
  checker_.audit_all();
  EXPECT_EQ(vm_.ctx().clock.now(), before);
  EXPECT_TRUE(vm_.ctx().counters == counters_before);
}

TEST_F(CoherenceMutationTest, ViolationCarriesStructuredDiagnosis) {
  vm_.vcpu().tlb().insert(/*pid=*/999, 0x7000,
                          sim::TlbEntry{0x3000, 0x4000, false, false});
  try {
    checker_.audit_tlb(vm_);
    ADD_FAILURE() << "expected a TLB-1 violation";
  } catch (const check::InvariantViolation& v) {
    EXPECT_EQ(v.id, "TLB-1");
    EXPECT_EQ(v.layer, check::Layer::kTlb);
    EXPECT_EQ(v.vm_id, vm_.id());
    EXPECT_EQ(v.gva, 0x7000u);
    EXPECT_NE(std::string(v.what()).find("coherence violation TLB-1"),
              std::string::npos);
    EXPECT_FALSE(v.expected.empty());
    EXPECT_FALSE(v.actual.empty());
  }
}

// ---- TLB corruptions --------------------------------------------------------

TEST_F(CoherenceMutationTest, DetectsTlbEntryForUnknownPid) {
  vm_.vcpu().tlb().insert(/*pid=*/999, 0x7000,
                          sim::TlbEntry{0x3000, 0x4000, false, false});
  expect_violation([&] { checker_.audit_tlb(vm_); }, "TLB-1");
}

TEST_F(CoherenceMutationTest, DetectsTlbEntrySurvivingUnmap) {
  auto [proc, base] = dirty_pages(1);
  // Unmap the PTE directly, bypassing Process::munmap's TLB shootdown — the
  // classic missed-invalidation bug.
  kernel_.page_table(*proc).unmap(base);
  expect_violation([&] { checker_.audit_tlb(vm_); }, "TLB-1");
}

TEST_F(CoherenceMutationTest, DetectsStaleCachedWritePermission) {
  auto [proc, base] = dirty_pages(1);
  // Write-protect the PTE without invalidating the cached translation:
  // stores through the stale entry would bypass the fault path entirely.
  kernel_.page_table(*proc).pte(base)->writable = false;
  expect_violation([&] { checker_.audit_tlb(vm_); }, "TLB-2");
}

TEST_F(CoherenceMutationTest, DetectsStaleCachedDirtyState) {
  auto [proc, base] = dirty_pages(1);
  // Clear the EPT dirty flag without the INVEPT the real paths perform:
  // the cached dirty=1 entry would let every later store skip PML logging.
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  vm_.ept().entry(gpa)->dirty = false;
  expect_violation([&] { checker_.audit_tlb(vm_); }, "TLB-3");
}

// ---- walk-cache corruptions -------------------------------------------------

TEST_F(CoherenceMutationTest, DetectsSkewedGuestWalkCache) {
  auto [proc, base] = dirty_pages(1);
  (void)base;
  // Skew the MRU leaf memo's tag so it no longer matches a fresh top-down
  // walk — a walk cache that survived a structural table change.
  kernel_.page_table(*proc).debug_skew_walk_cache();
  expect_violation([&] { checker_.audit_walk_caches(vm_); }, "WALK-1");
}

TEST_F(CoherenceMutationTest, DetectsSkewedEptWalkCache) {
  auto [proc, base] = dirty_pages(1);
  (void)proc;
  (void)base;
  vm_.ept().debug_skew_walk_cache();
  expect_violation([&] { checker_.audit_walk_caches(vm_); }, "WALK-1");
}

TEST_F(CoherenceMutationTest, WalkCachesCoherentAfterUnmapAndRemap) {
  auto [proc, base] = dirty_pages(4);
  proc->munmap(base);
  EXPECT_NO_THROW(checker_.audit_walk_caches(vm_));
  const Gva base2 = proc->mmap(4 * kPageSize);
  for (u64 i = 0; i < 4; ++i) proc->touch_write(base2 + i * kPageSize);
  EXPECT_NO_THROW(checker_.audit_walk_caches(vm_));
}

// ---- PML / EPML buffer corruptions ------------------------------------------

TEST_F(CoherenceMutationTest, DetectsPmlIndexOutOfBounds) {
  hv_.enable_pml_for_hyp(vm_);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlIndex, 600);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "PML-1");
}

TEST_F(CoherenceMutationTest, DetectsMisalignedPmlEntry) {
  hv_.enable_pml_for_hyp(vm_);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlIndex, 510);
  machine_.pmem.write_u64(vm_.pml_buffer() + 511 * 8, 0x1234);  // not 4K-aligned
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "PML-2");
}

TEST_F(CoherenceMutationTest, DetectsOutOfRangePmlEntry) {
  hv_.enable_pml_for_hyp(vm_);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlIndex, 510);
  machine_.pmem.write_u64(vm_.pml_buffer() + 511 * 8, vm_.mem_bytes() + kPageSize);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "PML-2");
}

TEST_F(CoherenceMutationTest, DetectsDuplicatePmlEntries) {
  hv_.enable_pml_for_hyp(vm_);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlIndex, 509);
  machine_.pmem.write_u64(vm_.pml_buffer() + 510 * 8, 0x5000);
  machine_.pmem.write_u64(vm_.pml_buffer() + 511 * 8, 0x5000);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "PML-3");
}

TEST_F(CoherenceMutationTest, DetectsVmcsBufferAddressMismatch) {
  hv_.enable_pml_for_hyp(vm_);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlAddress,
                          vm_.pml_buffer() + kPageSize);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "PML-4");
}

TEST_F(CoherenceMutationTest, DetectsGuestPmlControlWithoutShadowVmcs) {
  vm_.vcpu().vmcs().set_control(sim::kEnableGuestPml, true);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "EPML-3");
}

TEST_F(CoherenceMutationTest, DetectsGuestPmlIndexOutOfBounds) {
  auto [proc, base] = dirty_pages(1);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  const Hpa buf_hpa = vm_.ept().entry(gpa)->hpa_page;
  sim::Vmcs& shadow = vm_.vcpu().create_shadow_vmcs();
  shadow.write(sim::VmcsField::kGuestPmlAddress, buf_hpa);
  shadow.write(sim::VmcsField::kGuestPmlIndex, 700);
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "EPML-1");
}

TEST_F(CoherenceMutationTest, DetectsMisalignedGuestPmlEntry) {
  auto [proc, base] = dirty_pages(1);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  const Hpa buf_hpa = vm_.ept().entry(gpa)->hpa_page;
  sim::Vmcs& shadow = vm_.vcpu().create_shadow_vmcs();
  shadow.write(sim::VmcsField::kGuestPmlAddress, buf_hpa);
  shadow.write(sim::VmcsField::kGuestPmlIndex, 510);
  machine_.pmem.write_u64(buf_hpa + 511 * 8, 0x13);  // not a page-aligned GVA
  expect_violation([&] { checker_.audit_pml_buffers(vm_); }, "EPML-2");
}

// ---- dirty-flag accounting corruptions --------------------------------------

TEST_F(CoherenceMutationTest, DetectsUnaccountedEptDirtyFlag) {
  auto [proc, base] = dirty_pages(4);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  hv_.enable_pml_for_hyp(vm_);  // clears all dirty flags, arms logging
  // Set a dirty flag behind the walk circuit's back: no PML entry, no
  // ring or spill record — a write the paper's mechanism would have missed.
  vm_.ept().entry(gpa)->dirty = true;
  expect_violation([&] { checker_.audit_dirty_accounting(vm_); }, "ACC-1");
}

TEST_F(CoherenceMutationTest, DetectsDoubleAccountedGpa) {
  auto [proc, base] = dirty_pages(4);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  hv_.enable_pml_for_hyp(vm_);
  // The same GPA both in flight in the buffer and already drained to the
  // dirty ring: one write accounted twice.
  vm_.dirty_ring().spill(gpa);
  vm_.vcpu().vmcs().write(sim::VmcsField::kPmlIndex, 510);
  machine_.pmem.write_u64(vm_.pml_buffer() + 511 * 8, gpa);
  expect_violation([&] { checker_.audit_dirty_accounting(vm_); }, "ACC-2");
}

// ---- guest page-table corruptions -------------------------------------------

TEST_F(CoherenceMutationTest, DetectsPteMappingOutOfGuestSpace) {
  guest::Process& p = kernel_.create_process();
  (void)p.mmap(kPageSize);
  kernel_.page_table(p).map(0x40000000, vm_.mem_bytes() + kPageSize, true);
  expect_violation([&] { checker_.audit_guest_tables(vm_); }, "PT-1");
}

TEST_F(CoherenceMutationTest, DetectsGuestFrameMappedTwice) {
  auto [proc, base] = dirty_pages(1);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  guest::Process& other = kernel_.create_process();
  kernel_.page_table(other).map(0x40000000, gpa, true);
  expect_violation([&] { checker_.audit_guest_tables(vm_); }, "PT-2");
}

// ---- granularity corruptions ------------------------------------------------

TEST_F(CoherenceMutationTest, DetectsCrossGranOverlapInEpt) {
  auto [proc, base] = dirty_pages(8);
  // Slam a PS-bit 2 MiB leaf over the region the demand-paged 4 KiB EPT
  // entries already occupy: a cross-granularity double cover of those GPAs.
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  vm_.ept().map_huge(gran_floor(gpa, PageGran::k2M), 16 * kMiB, PageGran::k2M,
                     true);
  expect_violation([&] { checker_.audit_granularity(vm_); }, "GRAN-1");
}

TEST_F(CoherenceMutationTest, DetectsOverlappingSegments) {
  guest::Process& p = kernel_.create_process();
  const Gva base = p.mmap(4 * kPageSize);
  // Touch out of order so the GPA runs cannot coalesce into one segment.
  p.touch_write(base + 2 * kPageSize);
  p.touch_write(base);
  p.touch_write(base + kPageSize);
  auto tracker = lib::make_tracker(lib::Technique::kSeg, kernel_, p);
  tracker->init();  // converts the radix table to the segment backend
  ASSERT_GE(kernel_.page_table(p).segment_table()->segment_count(), 2u);
  EXPECT_NO_THROW(checker_.audit_granularity(vm_));
  kernel_.page_table(p).segment_table()->debug_overlap_segments();
  expect_violation([&] { checker_.audit_granularity(vm_); }, "GRAN-1");
}

TEST_F(CoherenceMutationTest, DetectsHugeLeafDuringEagerSplitSession) {
  auto [proc, base] = dirty_pages(4);
  (void)proc;
  (void)base;
  hv_.enable_pml_for_hyp(vm_);  // eager-split session: active from here on
  ASSERT_TRUE(vm_.eager_split_active());
  EXPECT_NO_THROW(checker_.audit_eager_split(vm_));
  // A PS-bit leaf appearing mid-session coarsens dirty logging back to
  // 2 MiB supersets — exactly what the split paid to prevent.
  vm_.ept().map_huge(32 * kMiB, 48 * kMiB, PageGran::k2M, true);
  expect_violation([&] { checker_.audit_eager_split(vm_); }, "SPLIT-1");
}

// ---- notifier-registry corruptions ------------------------------------------

TEST_F(CoherenceMutationTest, DetectsMissingHardwareCircuit) {
  auto* circuit =
      const_cast<sim::PageTrackNotifier*>(vm_.vcpu().hyp_pml_circuit());
  vm_.track().unregister_notifier(sim::TrackLayer::kEptDirty, circuit);
  expect_violation([&] { checker_.audit_registry(vm_); }, "REG-2");
}

TEST_F(CoherenceMutationTest, DetectsSoftwareConsumerAheadOfCircuit) {
  auto* circuit =
      const_cast<sim::PageTrackNotifier*>(vm_.vcpu().guest_pml_circuit());
  // Re-registering the circuit after a software consumer demotes the
  // hardware to the back of the chain: consumers would observe events
  // before the hardware logged them.
  vm_.track().unregister_notifier(sim::TrackLayer::kGuestPtDirty, circuit);
  vm_.track().register_notifier(sim::TrackLayer::kGuestPtDirty,
                                &vm_.hyp_drain_consumer());
  vm_.track().register_notifier(sim::TrackLayer::kGuestPtDirty, circuit);
  expect_violation([&] { checker_.audit_registry(vm_); }, "REG-2");
}

// ---- policy-handoff corruptions ---------------------------------------------

TEST_F(CoherenceMutationTest, DetectsOrphanedWriteProtectionAfterHandoff) {
  auto [proc, base] = dirty_pages(4);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  EXPECT_NO_THROW(checker_.audit_policy_handoff(vm_));
  // A backend switch away from write-protection that forgot to restore an
  // entry: no kEptWpFault handler is live, so the next write to this page
  // would be an unhandled WP fault and its dirty transition never observed.
  vm_.ept().entry(gpa)->writable = false;
  expect_violation([&] { checker_.audit_policy_handoff(vm_); }, "POL-1");
}

TEST_F(CoherenceMutationTest, LiveWpSessionOwnsItsProtections) {
  guest::Process& p = kernel_.create_process();
  const Gva base = p.mmap(4 * kPageSize);
  for (int i = 0; i < 4; ++i) p.touch_write(base + i * kPageSize);
  auto tracker = lib::make_tracker(lib::Technique::kWp, kernel_, p);
  tracker->init();
  tracker->begin_interval();  // write-protects the VMA's EPT entries
  EXPECT_NO_THROW(checker_.audit_policy_handoff(vm_))
      << "a live kEptWpFault handler owns its protections";
  tracker->shutdown();  // the handoff path: restore writability, unregister
  EXPECT_NO_THROW(checker_.audit_policy_handoff(vm_))
      << "a clean shutdown leaves no orphaned protection behind";
}

// ---- clock corruption -------------------------------------------------------

TEST_F(CoherenceMutationTest, DetectsClockRunningBackwards) {
  auto [proc, base] = dirty_pages(4);
  (void)proc;
  (void)base;
  ASSERT_GT(vm_.ctx().clock.now().count(), 0.0);
  EXPECT_NO_THROW(checker_.audit_clock(vm_));  // snapshot the current time
  vm_.ctx().clock.reset();
  expect_violation([&] { checker_.audit_clock(vm_); }, "CLK-1");
}

// ---- frame-ownership corruptions --------------------------------------------

TEST_F(CoherenceMutationTest, DetectsFrameOwnedByTwoVms) {
  auto [proc, base] = dirty_pages(1);
  const Gpa gpa = kernel_.page_table(*proc).pte(base)->gpa_page;
  const Hpa stolen = vm_.ept().entry(gpa)->hpa_page;
  hv::Vm& intruder = hv_.create_vm(16 * kMiB);
  intruder.ept().map(0x8000, stolen);
  expect_violation([&] { checker_.audit_frames(); }, "FRAME-1");
}

TEST_F(CoherenceMutationTest, DetectsLeakedFrame) {
  auto [proc, base] = dirty_pages(2);
  (void)proc;
  (void)base;
  const Hpa leaked = machine_.pmem.alloc_frame();  // never mapped anywhere
  EXPECT_NE(leaked, 0u);
  expect_violation([&] { checker_.audit_frames(); }, "FRAME-2");
}

TEST_F(CoherenceMutationTest, DetectsEptEntryNamingBogusFrame) {
  vm_.ept().map(0x8000, machine_.pmem.total_frames() * kPageSize + kPageSize);
  expect_violation([&] { checker_.audit_frames(); }, "FRAME-3");
}

TEST_F(CoherenceMutationTest, DetectsOrphanedBackedFrame) {
  dirty_pages(2);
  EXPECT_NO_THROW(checker_.audit_frames());
  // Materialise contents for a frame no EPT mapping or PML buffer owns.
  const Hpa orphan = (machine_.pmem.total_frames() - 1) * kPageSize;
  (void)machine_.pmem.frame_data(orphan);
  expect_violation([&] { checker_.audit_frames(); }, "FRAME-4");
}

// ---- auto-wiring ------------------------------------------------------------

TEST(CoherenceWiring, AuditsRunAutomaticallyDuringTrackedRuns) {
  if (!check::kCoherenceAuditsEnabled) {
    GTEST_SKIP() << "auto-audit wiring compiled out (OOH_COHERENCE_AUDITS off)";
  }
  lib::TestBedOptions opts;
  opts.host_mem_bytes = 256 * kMiB;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.cost = CostModel::unit();
  lib::TestBed bed(opts);
  guest::Process& proc = bed.kernel().create_process();
  const Gva base = proc.mmap(16 * kPageSize);
  auto tracker = lib::make_tracker(lib::Technique::kProc, bed.kernel(), proc);
  (void)lib::run_tracked(bed.kernel(), proc,
                         [&](guest::Process& p) {
                           for (u64 i = 0; i < 16; ++i)
                             p.touch_write(base + i * kPageSize);
                         },
                         tracker.get(), {});
  EXPECT_GT(bed.checker().audits_run(), 0u)
      << "run_tracked's collection boundary should audit via the hook";
  EXPECT_NO_THROW(bed.audit());
}

}  // namespace
}  // namespace ooh

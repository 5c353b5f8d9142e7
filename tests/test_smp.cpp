// SMP guest tests: multi-vCPU topology and round-robin placement, the
// mm_cpumask TLB-shootdown protocol (charges land on the owning vCPU, pinned
// processes pay nothing), the per-vCPU dirty-ring harvest with and without
// the kDirtyRingFull injected spill path, tracker sessions of processes on
// other vCPUs or migrated between them, the tracker consumers timing the
// process's vCPU, and the RING-1 / SHOOT-1 coherence-oracle mutation checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "guest/kernel.hpp"
#include "hypervisor/hypervisor.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/tracker.hpp"
#include "sim/check/coherence.hpp"
#include "trackers/boehmgc/gc.hpp"
#include "trackers/criu/checkpoint.hpp"
#include "trackers/uafguard/quarantine.hpp"

namespace ooh {
namespace {

// ---- topology and placement -------------------------------------------------

TEST(SmpTopology, PerVcpuContextsRingsAndRoundRobinPlacement) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.host_mem_bytes = 1 * kGiB;
  opts.vcpus_per_vm = 4;
  lib::TestBed bed(opts);
  hv::Vm& vm = bed.vm();
  guest::GuestKernel& k = bed.kernel();

  ASSERT_EQ(vm.vcpu_count(), 4u);
  ASSERT_EQ(k.vcpu_count(), 4u);
  for (unsigned cpu = 0; cpu < 4; ++cpu) {
    EXPECT_EQ(vm.vcpu(cpu).cpu_index(), cpu);
    EXPECT_EQ(vm.vcpu(cpu).vm_id(), vm.id());
    EXPECT_TRUE(vm.dirty_ring(cpu).empty());
    // Distinct timelines: charging one vCPU must not move another's clock.
    vm.vcpu(cpu).ctx().charge_us(1.0 + cpu);
  }
  for (unsigned cpu = 0; cpu < 4; ++cpu) {
    EXPECT_DOUBLE_EQ(vm.vcpu(cpu).ctx().clock.now().count(), 1.0 + cpu);
  }
  // BSP shorthands alias vCPU 0.
  EXPECT_EQ(&vm.ctx(), &vm.vcpu(0).ctx());
  EXPECT_EQ(&k.ctx(), &vm.vcpu(0).ctx());

  // create_process places round-robin with a singleton mm_cpumask.
  for (unsigned i = 0; i < 8; ++i) {
    guest::Process& p = k.create_process();
    EXPECT_EQ(p.cpu(), i % 4u);
    EXPECT_EQ(p.cpu_mask(), u64{1} << (i % 4u));
    EXPECT_EQ(&k.ctx_of(p), &vm.vcpu(i % 4u).ctx());
    EXPECT_EQ(&k.vcpu_of(p), &vm.vcpu(i % 4u));
  }
}

TEST(SmpTopology, SingleVcpuBedIsTheDefault) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.host_mem_bytes = 1 * kGiB;
  lib::TestBed bed(opts);
  EXPECT_EQ(bed.vm().vcpu_count(), 1u);
  EXPECT_EQ(bed.kernel().vcpu_count(), 1u);
}

// ---- mm_cpumask shootdown protocol ------------------------------------------

class SmpShootdownTest : public ::testing::Test {
 protected:
  SmpShootdownTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(64 * kMiB, 1u << 20, 2)),
        kernel_(hv_, vm_) {}

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  guest::GuestKernel kernel_;
};

TEST_F(SmpShootdownTest, PinnedProcessPaysNoShootdown) {
  guest::Process& p = kernel_.create_process();
  const Gva base = p.mmap(4 * kPageSize);
  for (u64 i = 0; i < 4; ++i) p.touch_write(base + i * kPageSize);

  const double before = kernel_.ctx_of(p).clock.now().count();
  kernel_.tlb_flush_pid(p);
  kernel_.tlb_invalidate_page(p, base);
  EXPECT_EQ(kernel_.ctx_of(p).counters.get(Event::kTlbShootdownIpi), 0u);
  // Never-migrated mask is a singleton: the flush itself charges nothing
  // here (callers charge their own kTlbFlush), so N=1 semantics hold.
  EXPECT_DOUBLE_EQ(kernel_.ctx_of(p).clock.now().count(), before);
}

TEST_F(SmpShootdownTest, MigratedProcessShootsDownItsOldVcpu) {
  guest::Process& p = kernel_.create_process();
  ASSERT_EQ(p.cpu(), 0u);
  const Gva base = p.mmap(4 * kPageSize);
  p.touch_write(base);  // TLB entry + mapping on vCPU 0

  kernel_.migrate_process(p, 1);
  EXPECT_EQ(p.cpu(), 1u);
  EXPECT_EQ(p.cpu_mask(), 0b11u) << "old vCPU stays in the mm_cpumask";

  // The shootdown is issued from (and charged to) the owning vCPU 1; the
  // single remote in the mask costs exactly one IPI.
  sim::ExecContext& owner = kernel_.ctx_of(p);
  ASSERT_EQ(&owner, &vm_.vcpu(1).ctx());
  const double before = owner.clock.now().count();
  kernel_.tlb_invalidate_page(p, base);
  EXPECT_EQ(owner.counters.get(Event::kTlbShootdownIpi), 1u);
  EXPECT_DOUBLE_EQ(owner.clock.now().count(),
                   before + owner.cost.tlb_shootdown_us);
  EXPECT_EQ(vm_.vcpu(0).ctx().counters.get(Event::kTlbShootdownIpi), 0u)
      << "the remote victim is not charged";

  kernel_.tlb_flush_pid(p);
  EXPECT_EQ(owner.counters.get(Event::kTlbShootdownIpi), 2u);

  // The remote invalidation really happened: vCPU 0 no longer caches the
  // translation, so SHOOT-1's premise (no stale foreign entries) holds.
  EXPECT_EQ(vm_.vcpu(0).tlb().lookup(p.pid(), base), nullptr);
}

// ---- kDirtyRingFull fault injection -----------------------------------------

TEST(SmpFaultInjection, DirtyRingFullSpillsLossFreeOnEveryVcpu) {
  constexpr unsigned kCpus = 2;
  constexpr u64 kPages = 32;
  // forced_full: every ring arrival reports full, so all entries take the
  // spill path. The control (no fault plan) fills the rings and never
  // spills. Either way the harvest is exactly the touched pages.
  for (const bool forced_full : {true, false}) {
    SCOPED_TRACE(forced_full ? "forced full" : "no fault");
    lib::TestBedOptions opts;
    opts.vm_mem_bytes = 64 * kMiB;
    opts.host_mem_bytes = 1 * kGiB;
    opts.vcpus_per_vm = kCpus;
    opts.cost = CostModel::unit();
    // The per-vCPU injectors run the FAULT-2 discipline (post-fault audit)
    // in audit builds automatically.
    if (forced_full) {
      opts.fault_plan.add(
          {sim::fault::FaultPoint::kDirtyRingFull, /*first=*/0, /*every=*/1,
           /*limit=*/0, /*arg=*/0});
    }
    lib::TestBed bed(opts);
    hv::Vm& vm = bed.vm();
    guest::GuestKernel& k = bed.kernel();
    if (forced_full) {
      ASSERT_NE(bed.fault_injector(0, 0), nullptr);
      ASSERT_NE(bed.fault_injector(0, kCpus - 1), nullptr);
    }

    bed.hypervisor().enable_pml_for_hyp(vm);
    std::vector<Gpa> touched;
    for (unsigned p = 0; p < kCpus; ++p) {  // one process per vCPU
      guest::Process& proc = k.create_process();
      const Gva base = proc.mmap(kPages * kPageSize);
      for (u64 i = 0; i < kPages; ++i) {
        proc.touch_write(base + i * kPageSize);
        touched.push_back(k.page_table(proc).lookup(base + i * kPageSize).gpa_page);
      }
    }
    std::vector<Gpa> dirty = bed.hypervisor().harvest_hyp_dirty(vm);
    bed.hypervisor().disable_pml_for_hyp(vm);

    std::sort(dirty.begin(), dirty.end());
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(dirty, touched) << "the harvest must be exactly the touched pages";
    for (unsigned cpu = 0; cpu < kCpus; ++cpu) {
      const hv::DirtyRing& ring = vm.dirty_ring(cpu);
      EXPECT_EQ(vm.vcpu(cpu).ctx().counters.get(Event::kDirtyRingFull) > 0, forced_full)
          << "vcpu " << cpu;
      EXPECT_TRUE(ring.empty()) << "vcpu " << cpu;
      EXPECT_EQ(ring.spill_size(), 0u) << "vcpu " << cpu;
      // Forced-full rings route everything through the spill log; otherwise
      // the harvest pops each vCPU's pages from its own ring.
      EXPECT_EQ(ring.popped(), forced_full ? 0u : kPages) << "vcpu " << cpu;
    }
    bed.audit();
  }
}

// ---- tracker sessions of processes off vCPU 0 ------------------------------

lib::TestBedOptions two_vcpu_bed() {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.host_mem_bytes = 1 * kGiB;
  opts.vcpus_per_vm = 2;
  return opts;
}

/// The process's truth ledger as a sorted page list (collect()'s shape).
std::vector<Gva> truth_pages(const guest::Process& proc) {
  std::vector<Gva> out;
  for (const auto& [page, seq] : proc.truth_dirty()) out.push_back(page);
  return out;
}

TEST(SmpTracker, PhasesLandOnTheProcessVcpu) {
  for (const lib::Technique tech : {lib::Technique::kProc, lib::Technique::kSpml,
                                    lib::Technique::kEpml, lib::Technique::kWp}) {
    SCOPED_TRACE(std::string(lib::technique_name(tech)));
    lib::TestBed bed(two_vcpu_bed());
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    k.migrate_process(proc, 1);
    constexpr u64 kPages = 32;
    const Gva base = proc.mmap(kPages * kPageSize);
    for (u64 i = 0; i < kPages; ++i) proc.touch_write(base + i * kPageSize);
    sim::ExecContext& own = k.vm().vcpu(1).ctx();
    sim::ExecContext& other = k.vm().vcpu(0).ctx();

    auto tracker = lib::make_tracker(tech, k, proc);
    tracker->init();
    tracker->begin_interval();
    k.scheduler_of(proc).enter_process(proc.pid());
    for (u64 i = 0; i < kPages; ++i) proc.touch_write(base + i * kPageSize);
    k.scheduler_of(proc).exit_process(proc.pid());
    const VirtDuration before = own.clock.now();
    EXPECT_EQ(tracker->collect().size(), kPages);
    const VirtDuration spent = own.clock.now() - before;

    // The session's phase times are the time its calls took on the
    // process's vCPU, and its collect counts there.
    const lib::Phases& ph = tracker->phases();
    EXPECT_GT(spent.count(), 0.0);
    EXPECT_NEAR(ph.collect.count(), spent.count(), 1e-9 * spent.count());
    if (tech == lib::Technique::kProc) {
      EXPECT_GT(ph.arm.count(), 0.0) << "clear_refs";
    } else {
      EXPECT_GT(ph.init.count(), 0.0);
    }
    EXPECT_EQ(own.counters.get(Event::kTrackerCollect), 1u);
    EXPECT_EQ(other.counters.get(Event::kTrackerCollect), 0u);
    tracker->shutdown();
    bed.audit();
  }
}

TEST(SmpTracker, SessionsSurviveMigrateProcess) {
  for (const lib::Technique tech :
       {lib::Technique::kProc, lib::Technique::kUfd, lib::Technique::kSpml,
        lib::Technique::kEpml, lib::Technique::kWp}) {
    SCOPED_TRACE(std::string(lib::technique_name(tech)));
    lib::TestBed bed(two_vcpu_bed());
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    ASSERT_EQ(proc.cpu(), 0u);
    constexpr u64 kPages = 32;
    const Gva base = proc.mmap(kPages * kPageSize);
    for (u64 i = 0; i < kPages; ++i) proc.touch_write(base + i * kPageSize);

    auto tracker = lib::make_tracker(tech, k, proc);
    tracker->init();
    const auto begin = [&] {
      tracker->begin_interval();
      proc.truth_reset();
    };
    const auto write_on = [&](unsigned cpu, u64 from, u64 n) {
      if (proc.cpu() != cpu) k.migrate_process(proc, cpu);
      k.scheduler_of(proc).enter_process(proc.pid());
      for (u64 i = from; i < from + n; ++i) proc.touch_write(base + i * kPageSize);
      k.scheduler_of(proc).exit_process(proc.pid());
    };

    // Tracked on vCPU 0, migrated to vCPU 1 mid-interval, 16 writes there.
    begin();
    write_on(0, 0, 8);
    write_on(1, 8, 16);
    EXPECT_EQ(tracker->collect(), truth_pages(proc)) << "interval 1";
    // Back to vCPU 0 mid-interval.
    begin();
    write_on(1, 0, 16);
    write_on(0, 16, 16);
    EXPECT_EQ(tracker->collect(), truth_pages(proc)) << "interval 2";
    // Rewrites of pages last logged on the other vCPU must log again.
    begin();
    write_on(0, 0, kPages);
    EXPECT_EQ(tracker->collect(), truth_pages(proc)) << "interval 3";
    EXPECT_EQ(tracker->dropped(), 0u);
    tracker->shutdown();
    bed.audit();
  }
}

TEST(SmpTracker, ConsumersTimeTheProcessVcpu) {
  // run_tracked, CRIU, the GC and the UAF quarantine charge and read the
  // clock of the vCPU their process runs on: with the process on vCPU 1,
  // vCPU 0 stays idle and the tracker's time shows in their phases.
  lib::TestBed bed(two_vcpu_bed());
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  k.migrate_process(proc, 1);
  constexpr u64 kBytes = 32 * kPageSize;
  const Gva base = proc.mmap(kBytes, /*data_backed=*/true);
  proc.touch_range_write(base, kBytes);
  const auto write_all = [&](guest::Process& p) { p.touch_range_write(base, kBytes); };
  const VirtDuration idle = k.vm().vcpu(0).ctx().clock.now();

  auto tracker = lib::make_tracker(lib::Technique::kEpml, k, proc);
  const lib::RunResult run = lib::run_tracked(k, proc, write_all, tracker.get());
  tracker->shutdown();
  EXPECT_GT(run.tracked_time.count(), 0.0);
  EXPECT_EQ(run.captured_truth, 32u);

  const criu::CheckpointResult ckpt =
      criu::Checkpointer(k, lib::Technique::kEpml).checkpoint_during(proc, write_all);
  EXPECT_GT(ckpt.phases.md.count(), 0.0) << "the final collect";

  {
    gc::GcHeap heap(k, proc, 4 * kMiB, 1 * kMiB);
    heap.set_technique(lib::Technique::kEpml);
    heap.add_root(heap.alloc(1, 64));
    (void)heap.collect();
    EXPECT_GT(heap.collect().dirty_query.count(), 0.0);
  }
  {
    uaf::QuarantineAllocator quarantine(k, proc, 1 * kMiB, lib::Technique::kEpml);
    (void)quarantine.sweep();
    EXPECT_GT(quarantine.sweep().dirty_query.count(), 0.0);
  }
  EXPECT_EQ(k.vm().vcpu(0).ctx().clock.now(), idle);
  bed.audit();
}

// ---- coherence oracle: RING-1 and SHOOT-1 mutations -------------------------

class SmpCoherenceTest : public ::testing::Test {
 protected:
  SmpCoherenceTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(64 * kMiB, 1u << 20, 2)),
        kernel_(hv_, vm_),
        checker_(machine_, hv_) {
    checker_.attach_kernel(vm_.id(), kernel_);
  }

  void expect_violation(const std::string& id) {
    try {
      checker_.audit_vm(vm_.id());
      ADD_FAILURE() << "expected InvariantViolation " << id << ", none thrown";
    } catch (const check::InvariantViolation& v) {
      EXPECT_EQ(v.id, id) << v.what();
    }
  }

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  guest::GuestKernel kernel_;
  check::CoherenceChecker checker_;
};

TEST_F(SmpCoherenceTest, CleanSmpMachinePasses) {
  guest::Process& p = kernel_.create_process();
  const Gva base = p.mmap(8 * kPageSize);
  for (u64 i = 0; i < 8; ++i) p.touch_write(base + i * kPageSize);
  kernel_.migrate_process(p, 1);
  p.touch_write(base);
  EXPECT_NO_THROW(checker_.audit_vm(vm_.id()));
}

TEST_F(SmpCoherenceTest, MisalignedRingEntryViolatesRing1) {
  vm_.dirty_ring(0).spill(0x123);  // not page-aligned
  expect_violation("RING-1");
}

TEST_F(SmpCoherenceTest, OutOfRangeRingEntryViolatesRing1) {
  vm_.dirty_ring(1).spill(vm_.mem_bytes() + kPageSize);
  expect_violation("RING-1");
}

TEST_F(SmpCoherenceTest, ForeignTlbEntryViolatesShoot1) {
  guest::Process& p = kernel_.create_process();
  ASSERT_EQ(p.cpu(), 0u);
  const Gva base = p.mmap(kPageSize);
  p.touch_write(base);
  const sim::TlbEntry* e = vm_.vcpu(0).tlb().lookup(p.pid(), base);
  ASSERT_NE(e, nullptr);
  // A translation cached on a vCPU outside the process's mm_cpumask is
  // exactly the stale entry a missed shootdown would leave behind.
  vm_.vcpu(1).tlb().insert(p.pid(), base, *e);
  expect_violation("SHOOT-1");
}

}  // namespace
}  // namespace ooh

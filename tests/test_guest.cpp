// Guest kernel tests: processes and demand paging, the /proc soft-dirty
// interface, userfaultfd, and the scheduler's hooks/quantum/service windows.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "guest/kernel.hpp"
#include "guest/ooh_module.hpp"
#include "guest/procfs.hpp"
#include "guest/uffd.hpp"
#include "hypervisor/hypervisor.hpp"

namespace ooh::guest {
namespace {

class GuestTest : public ::testing::Test {
 protected:
  GuestTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(128 * kMiB)),
        kernel_(hv_, vm_) {}

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  GuestKernel kernel_;
};

// ---- process & demand paging -------------------------------------------------

TEST_F(GuestTest, MmapAssignsDisjointVmas) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(3 * kPageSize);
  const Gva b = p.mmap(10);
  EXPECT_TRUE(is_page_aligned(a));
  EXPECT_GE(b, a + 3 * kPageSize);
  EXPECT_EQ(p.mapped_bytes(), 4 * kPageSize);
  EXPECT_NE(p.vma_of(a), nullptr);
  EXPECT_NE(p.vma_of(b), nullptr);
  EXPECT_EQ(p.vma_of(a + 100 * kPageSize), nullptr);
  EXPECT_THROW((void)p.mmap(0), std::invalid_argument);
}

TEST_F(GuestTest, DemandPagingMapsOnFirstTouch) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  EXPECT_EQ(kernel_.page_table(p).present_pages(), 0u);
  p.touch_write(a);
  p.touch_write(a + kPageSize);
  EXPECT_EQ(kernel_.page_table(p).present_pages(), 2u);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultDemand), 2u);
  p.touch_write(a);  // no further fault
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultDemand), 2u);
}

TEST_F(GuestTest, FreshPagesAreSoftDirty) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  EXPECT_TRUE(kernel_.page_table(p).pte(a)->soft_dirty);
}

TEST_F(GuestTest, SegfaultOutsideVma) {
  Process& p = kernel_.create_process();
  EXPECT_THROW(p.touch_write(0xdead0000), GuestSegfault);
}

TEST_F(GuestTest, DataBackedRoundTrip) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize, /*data_backed=*/true);
  p.write_u64(a + 8, 0x1122334455667788ULL);
  EXPECT_EQ(p.read_u64(a + 8), 0x1122334455667788ULL);
  EXPECT_EQ(p.read_u64(a + 16), 0u);

  std::vector<u8> buf(5000, 0xAB);
  p.write_bytes(a, buf);  // spans both pages
  std::vector<u8> out(5000, 0);
  p.read_bytes(a, out);
  EXPECT_EQ(out, buf);
}

TEST_F(GuestTest, TruthRecordsWrittenPages) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(8 * kPageSize);
  p.touch_write(a);
  p.touch_write(a + 3 * kPageSize);
  p.touch_read(a + 5 * kPageSize);
  EXPECT_EQ(p.truth_dirty().size(), 2u);
  EXPECT_TRUE(p.truth_dirty().contains(a));
  EXPECT_TRUE(p.truth_dirty().contains(a + 3 * kPageSize));
  p.truth_reset();
  EXPECT_TRUE(p.truth_dirty().empty());
}

TEST_F(GuestTest, TruthRecordOutsideEveryVmaThrows) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  EXPECT_THROW(p.truth_record(a + 4 * kPageSize), std::out_of_range);
  EXPECT_TRUE(p.truth_dirty().empty());
}

TEST_F(GuestTest, MmapFixedRejectsOverlapAndMisalignment) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  EXPECT_THROW(p.mmap_fixed(a + 2 * kPageSize, kPageSize), std::invalid_argument);
  EXPECT_THROW(p.mmap_fixed(a - kPageSize, 2 * kPageSize), std::invalid_argument);
  EXPECT_THROW(p.mmap_fixed(a + 64 * kPageSize + 8, kPageSize), std::invalid_argument);
  EXPECT_THROW(p.mmap_fixed(a + 64 * kPageSize, 0), std::invalid_argument);
  // A hole below an existing VMA is fine; the list stays sorted and later
  // sequential maps land above every fixed one.
  p.munmap(a);
  const Gva high = a + 64 * kPageSize;
  p.mmap_fixed(high, kPageSize, /*data_backed=*/true);
  p.mmap_fixed(a, kPageSize);
  ASSERT_EQ(p.vmas().size(), 2u);
  EXPECT_EQ(p.vmas()[0].start, a);
  EXPECT_EQ(p.vmas()[1].start, high);
  EXPECT_TRUE(p.vmas()[1].data_backed);
  EXPECT_GT(p.mmap(kPageSize), high + kPageSize);
  EXPECT_EQ(p.mapped_bytes(), 3 * kPageSize);
}

// The dense truth ledger against a std::map reference: random writes,
// multi-page touch runs, mmap/munmap and resets; after every op the size,
// membership, the iterated (page, sequence) items and truth_seq must match.
TEST_F(GuestTest, TruthLedgerMatchesReferenceUnderRandomOps) {
  Process& p = kernel_.create_process();
  Rng rng(20);
  std::map<Gva, u64> ref;  // page -> last-write sequence since the reset
  u64 seq = 0;
  const auto record = [&](Gva addr) { ref[page_floor(addr)] = ++seq; };
  std::vector<std::pair<Gva, u64>> vmas;  // (start, pages)
  const auto map_one = [&] {
    const u64 pages = 1 + rng.below(48);
    vmas.emplace_back(p.mmap(pages * kPageSize, rng.below(2) == 0), pages);
  };
  for (int i = 0; i < 3; ++i) map_one();

  for (int op = 0; op < 12000; ++op) {
    const auto [start, pages] = vmas[rng.below(vmas.size())];
    const u64 kind = rng.below(100);
    if (kind < 55) {
      const Gva addr = start + rng.below(pages * kPageSize / 8) * 8;
      p.write_u64(addr, rng.next());
      record(addr);
    } else if (kind < 80) {
      constexpr u64 kStrides[] = {8, 64, 1000, kPageSize, 3 * kPageSize};
      const u64 stride = kStrides[rng.below(std::size(kStrides))];
      const Gva from = start + rng.below(pages) * kPageSize + rng.below(kPageSize / 8) * 8;
      const u64 room = start + pages * kPageSize - from;
      const u64 bytes = 1 + rng.below(std::min<u64>(room, 6 * kPageSize));
      p.touch_range_write(from, bytes, stride);
      for (u64 off = 0; off < bytes; off += stride) record(from + off);
    } else if (kind < 88) {
      map_one();
    } else if (kind < 94) {
      if (vmas.size() > 1) {
        const std::size_t v = rng.below(vmas.size());
        const auto [base, n] = vmas[v];
        p.munmap(base);
        ref.erase(ref.lower_bound(base), ref.lower_bound(base + n * kPageSize));
        vmas.erase(vmas.begin() + static_cast<std::ptrdiff_t>(v));
      }
    } else {
      p.truth_reset();
      ref.clear();
    }

    const TruthLedger& truth = p.truth_dirty();
    ASSERT_EQ(p.truth_seq(), seq) << "op " << op;
    ASSERT_EQ(truth.size(), ref.size()) << "op " << op;
    ASSERT_EQ(truth.empty(), ref.empty()) << "op " << op;
    std::vector<std::pair<Gva, u64>> got, want(ref.begin(), ref.end());
    for (const auto& [page, last] : truth) got.emplace_back(page, last);
    ASSERT_EQ(got, want) << "op " << op;
    for (int probe = 0; probe < 4; ++probe) {
      const auto [vstart, vpages] = vmas[rng.below(vmas.size())];
      const Gva page = vstart + rng.below(vpages + 2) * kPageSize;
      ASSERT_EQ(truth.contains(page), ref.contains(page)) << "op " << op;
    }
  }
}

TEST_F(GuestTest, AccessThroughAnotherKernelThrows) {
  // A second VM whose kernel caches a translation for the same pid and page:
  // the TLB-hit paths (scalar and batched) must still refuse a process the
  // kernel does not own, before they charge or record anything.
  hv::Vm& vm2 = hv_.create_vm(16 * kMiB);
  GuestKernel other(hv_, vm2);
  Process& mine = kernel_.create_process();
  Process& theirs = other.create_process();
  ASSERT_EQ(mine.pid(), theirs.pid());
  const Gva base = mine.mmap(kPageSize);
  ASSERT_EQ(theirs.mmap(kPageSize), base);
  mine.touch_write(base);
  theirs.touch_write(base);
  ASSERT_NE(vm2.vcpu(0).tlb().lookup(theirs.pid(), base), nullptr);

  const double clock = vm2.vcpu(0).ctx().clock.now().count();
  EXPECT_THROW((void)other.access(mine, base, /*is_write=*/false, VirtDuration{0}),
               std::logic_error);
  EXPECT_THROW((void)other.access(mine, base, /*is_write=*/true, VirtDuration{0}),
               std::logic_error);
  EXPECT_THROW(other.touch_run(mine, base, 8, 4, /*is_write=*/true), std::logic_error);
  EXPECT_EQ(vm2.vcpu(0).ctx().clock.now().count(), clock) << "a refused access charges nothing";
  EXPECT_EQ(mine.truth_seq(), 1u) << "a refused write records no truth";
}

TEST_F(GuestTest, ProcessesHaveIndependentPageTables) {
  Process& p1 = kernel_.create_process();
  Process& p2 = kernel_.create_process();
  EXPECT_NE(p1.pid(), p2.pid());
  const Gva a1 = p1.mmap(kPageSize);
  const Gva a2 = p2.mmap(kPageSize);
  EXPECT_EQ(a1, a2) << "address spaces are private, so bases coincide";
  p1.touch_write(a1);
  EXPECT_EQ(kernel_.page_table(p1).present_pages(), 1u);
  EXPECT_EQ(kernel_.page_table(p2).present_pages(), 0u);
}

// ---- procfs --------------------------------------------------------------------

TEST_F(GuestTest, ClearRefsThenWriteSetsSoftDirtyViaFault) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  for (int i = 0; i < 4; ++i) p.touch_write(a + i * kPageSize);

  kernel_.procfs().clear_refs(p);
  EXPECT_FALSE(kernel_.page_table(p).pte(a)->soft_dirty);
  EXPECT_FALSE(kernel_.page_table(p).pte(a)->writable) << "write-protected";
  EXPECT_TRUE(kernel_.procfs().pagemap_dirty(p).empty());

  p.touch_write(a + kPageSize);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultSoftDirty), 1u);
  const std::vector<Gva> dirty = kernel_.procfs().pagemap_dirty(p);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], a + kPageSize);
  // The faulted page is writable again; a second write does not re-fault.
  p.touch_write(a + kPageSize);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultSoftDirty), 1u);
}

TEST_F(GuestTest, ReadsDoNotSetSoftDirty) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  kernel_.procfs().clear_refs(p);
  p.touch_read(a);
  EXPECT_TRUE(kernel_.procfs().pagemap_dirty(p).empty());
}

TEST_F(GuestTest, PagemapEntriesExposeTranslations) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  p.touch_write(a);
  p.touch_write(a + kPageSize);
  std::vector<Gva> visited;
  kernel_.procfs().pagemap_for_each(p, [&](Gva gva, Gpa gpa) {
    visited.push_back(gva);
    EXPECT_EQ(kernel_.page_table(p).pte(gva)->gpa_page, gpa);
  });
  EXPECT_EQ(visited, (std::vector<Gva>{a, a + kPageSize}));
}

// ---- userfaultfd ----------------------------------------------------------------

TEST_F(GuestTest, UffdWpFaultsOncePerProtectRound) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  for (int i = 0; i < 4; ++i) p.touch_write(a + i * kPageSize);

  std::vector<Gva> seen;
  kernel_.uffd().register_wp(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a);
  p.touch_write(a);  // unprotected now: no second event
  p.touch_write(a + 2 * kPageSize);
  EXPECT_EQ(seen, (std::vector<Gva>{a, a + 2 * kPageSize}));
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultUffd), 2u);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kUffdWriteUnprotect), 2u);

  kernel_.uffd().rearm_wp(p);
  p.touch_write(a);
  EXPECT_EQ(seen.size(), 3u) << "re-protecting re-arms the fault";
}

TEST_F(GuestTest, UffdCatchesFreshDemandPages) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  std::vector<Gva> seen;
  kernel_.uffd().register_wp(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a);  // miss -> mapped wp -> wp fault
  EXPECT_EQ(seen, std::vector<Gva>{a});
}

TEST_F(GuestTest, UffdUnregisterStopsEvents) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  int events = 0;
  kernel_.uffd().register_wp(p, [&](Gva) { ++events; });
  kernel_.uffd().unregister(p);
  p.touch_write(a);
  EXPECT_EQ(events, 0);
}

TEST_F(GuestTest, UffdMissingModeReportsFirstTouch) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  std::vector<Gva> seen;
  kernel_.uffd().register_missing(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a + kPageSize);
  p.touch_write(a + kPageSize);
  EXPECT_EQ(seen, std::vector<Gva>{a + kPageSize});
}

// ---- scheduler ------------------------------------------------------------------

struct RecordingHook final : SchedHook {
  void on_schedule_in(u32 pid) override { ins.push_back(pid); }
  void on_schedule_out(u32 pid) override { outs.push_back(pid); }
  std::vector<u32> ins, outs;
};

TEST_F(GuestTest, QuantumTickFiresHooksAndCounts) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(64 * kPageSize);
  RecordingHook hook;
  Scheduler& sched = kernel_.scheduler();
  sched.add_hook(&hook);
  sched.set_quantum(usecs(50));

  sched.enter_process(p.pid());
  for (int i = 0; i < 64; ++i) p.touch_write(a + i * kPageSize);  // >50us at unit costs
  sched.exit_process(p.pid());

  EXPECT_GT(sched.quantum_switches(), 0u);
  EXPECT_GT(vm_.ctx().counters.get(Event::kSchedQuantum), 0u);
  // enter + each tick fires in; each tick + exit fires out.
  EXPECT_EQ(hook.ins.size(), 1 + sched.quantum_switches());
  EXPECT_EQ(hook.outs.size(), sched.quantum_switches() + 1);
  sched.remove_hook(&hook);
}

TEST_F(GuestTest, PeriodicServicePreemptsAndRuns) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(256 * kPageSize);
  Scheduler& sched = kernel_.scheduler();
  int services = 0;
  sched.set_periodic(usecs(100), [&] { ++services; });
  sched.enter_process(p.pid());
  for (int i = 0; i < 256; ++i) p.touch_write(a + i * kPageSize);
  sched.exit_process(p.pid());
  sched.clear_periodic();
  EXPECT_GT(services, 0);
}

TEST_F(GuestTest, ServiceWindowsDoNotRecurse) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(8 * kPageSize);
  p.touch_write(a);
  Scheduler& sched = kernel_.scheduler();
  int depth = 0, max_depth = 0;
  sched.set_periodic(usecs(1), [&] {
    ++depth;
    max_depth = std::max(max_depth, depth);
    // Service code touching guest memory must not re-trigger service.
    p.touch_write(a + 4 * kPageSize);
    --depth;
  });
  sched.enter_process(p.pid());
  for (int i = 0; i < 8; ++i) p.touch_write(a + i * kPageSize);
  sched.exit_process(p.pid());
  sched.clear_periodic();
  EXPECT_EQ(max_depth, 1);
}

TEST_F(GuestTest, RunServiceChargesContextSwitches) {
  Process& p = kernel_.create_process();
  const u64 before = vm_.ctx().counters.get(Event::kContextSwitch);
  bool ran = false;
  kernel_.scheduler().run_service(p.pid(), [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kContextSwitch), before + 2);
}

}  // namespace
}  // namespace ooh::guest

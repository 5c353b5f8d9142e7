// Page-track notifier chain tests: registry semantics (registration,
// enable state, dispatch order, per-notifier counters, fault-layer
// stop-at-first-handler), the EPT write-protection fault path incl. the
// TLB-invalidation regression, SPML's reverse-map cache against recycled
// frames (munmap, swap-out, randomized churn), the WpTracker backend's completeness, and migration + guest-EPML coexistence
// where unregistering one consumer must not perturb the other's virtual
// time, and kPmlDrain's one dispatch per drained buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "guest/swap.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/migration.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/machine.hpp"
#include "sim/mmu.hpp"
#include "sim/page_track.hpp"

namespace ooh {
namespace {

using sim::TrackEvent;
using sim::TrackLayer;
using sim::WriteTrackRegistry;

/// Records every delivery; configurable handled-result and side effects.
struct Recorder final : sim::PageTrackNotifier {
  bool on_track(TrackLayer layer, const TrackEvent& ev) override {
    deliveries.push_back({layer, ev});
    if (on_deliver) on_deliver();
    return handled;
  }
  void on_track_flush(u32 pid, Gva start, Gva end) override {
    flushes.push_back({pid, start, end});
  }

  struct Delivery {
    TrackLayer layer;
    TrackEvent ev;
  };
  struct Flush {
    u32 pid;
    Gva start, end;
  };
  std::vector<Delivery> deliveries;
  std::vector<Flush> flushes;
  bool handled = true;
  std::function<void()> on_deliver;
};

// ---- registry unit tests ----------------------------------------------------

TEST(WriteTrackRegistryTest, DispatchFollowsRegistrationOrder) {
  WriteTrackRegistry reg;
  std::vector<int> order;
  Recorder a, b, c;
  a.on_deliver = [&] { order.push_back(0); };
  b.on_deliver = [&] { order.push_back(1); };
  c.on_deliver = [&] { order.push_back(2); };
  reg.register_notifier(TrackLayer::kEptDirty, &a);
  reg.register_notifier(TrackLayer::kEptDirty, &b);
  reg.register_notifier(TrackLayer::kEptDirty, &c);

  EXPECT_TRUE(reg.dispatch(TrackLayer::kEptDirty, {nullptr, 1, 0x1000, 0x2000}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(a.deliveries[0].ev.pid, 1u);
  EXPECT_EQ(a.deliveries[0].ev.gva_page, 0x1000u);
  EXPECT_EQ(a.deliveries[0].ev.gpa_page, 0x2000u);
}

TEST(WriteTrackRegistryTest, EmptyChainDispatchIsUnhandled) {
  WriteTrackRegistry reg;
  EXPECT_FALSE(reg.dispatch(TrackLayer::kEptDirty, {}));
  EXPECT_EQ(reg.events_dispatched(TrackLayer::kEptDirty), 1u);
}

TEST(WriteTrackRegistryTest, DuplicateAndNullRegistrationThrow) {
  WriteTrackRegistry reg;
  Recorder a;
  reg.register_notifier(TrackLayer::kEptDirty, &a);
  EXPECT_THROW(reg.register_notifier(TrackLayer::kEptDirty, &a), std::logic_error);
  EXPECT_THROW(reg.register_notifier(TrackLayer::kEptDirty, nullptr),
               std::logic_error);
  // The same notifier on a *different* layer is fine.
  reg.register_notifier(TrackLayer::kGuestPtDirty, &a);
  EXPECT_TRUE(reg.registered(TrackLayer::kGuestPtDirty, &a));
}

TEST(WriteTrackRegistryTest, UnregisterStopsDeliveryAndPreservesOthers) {
  WriteTrackRegistry reg;
  Recorder a, b;
  reg.register_notifier(TrackLayer::kEptDirty, &a);
  reg.register_notifier(TrackLayer::kEptDirty, &b);
  reg.dispatch(TrackLayer::kEptDirty, {});
  reg.unregister_notifier(TrackLayer::kEptDirty, &a);
  EXPECT_FALSE(reg.registered(TrackLayer::kEptDirty, &a));
  reg.dispatch(TrackLayer::kEptDirty, {});
  EXPECT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries.size(), 2u);
  EXPECT_EQ(reg.events_delivered(TrackLayer::kEptDirty, &b), 2u);
  EXPECT_EQ(reg.events_dispatched(TrackLayer::kEptDirty), 2u);
}

TEST(WriteTrackRegistryTest, DisabledRegistrationKeepsPositionButGetsNothing) {
  WriteTrackRegistry reg;
  std::vector<int> order;
  Recorder a, b;
  a.on_deliver = [&] { order.push_back(0); };
  b.on_deliver = [&] { order.push_back(1); };
  reg.register_notifier(TrackLayer::kEptDirty, &a);
  reg.register_notifier(TrackLayer::kEptDirty, &b);
  reg.set_enabled(TrackLayer::kEptDirty, &a, false);
  EXPECT_FALSE(reg.enabled(TrackLayer::kEptDirty, &a));
  EXPECT_TRUE(reg.any_enabled(TrackLayer::kEptDirty));

  reg.dispatch(TrackLayer::kEptDirty, {});
  EXPECT_EQ(order, (std::vector<int>{1}));

  // Re-enabling restores the original chain position, not a new tail slot.
  reg.set_enabled(TrackLayer::kEptDirty, &a, true);
  order.clear();
  reg.dispatch(TrackLayer::kEptDirty, {});
  EXPECT_EQ(order, (std::vector<int>{0, 1}));

  reg.set_enabled(TrackLayer::kEptDirty, &a, false);
  reg.set_enabled(TrackLayer::kEptDirty, &b, false);
  EXPECT_FALSE(reg.any_enabled(TrackLayer::kEptDirty));
}

TEST(WriteTrackRegistryTest, FaultLayersStopAtFirstHandler) {
  WriteTrackRegistry reg;
  Recorder first, second;
  reg.register_notifier(TrackLayer::kEptWpFault, &first);
  reg.register_notifier(TrackLayer::kEptWpFault, &second);

  // First handler claims the fault: the chain stops there.
  EXPECT_TRUE(reg.dispatch(TrackLayer::kEptWpFault, {}));
  EXPECT_EQ(first.deliveries.size(), 1u);
  EXPECT_EQ(second.deliveries.size(), 0u);

  // First handler declines: the fault falls through to the second.
  first.handled = false;
  EXPECT_TRUE(reg.dispatch(TrackLayer::kEptWpFault, {}));
  EXPECT_EQ(first.deliveries.size(), 2u);
  EXPECT_EQ(second.deliveries.size(), 1u);

  // Logging layers run the whole chain even when everyone handles.
  Recorder la, lb;
  reg.register_notifier(TrackLayer::kEptDirty, &la);
  reg.register_notifier(TrackLayer::kEptDirty, &lb);
  EXPECT_TRUE(reg.dispatch(TrackLayer::kEptDirty, {}));
  EXPECT_EQ(la.deliveries.size(), 1u);
  EXPECT_EQ(lb.deliveries.size(), 1u);
}

TEST(WriteTrackRegistryTest, NotifierMayUnregisterItselfDuringDispatch) {
  WriteTrackRegistry reg;
  Recorder a, b;
  a.on_deliver = [&] { reg.unregister_notifier(TrackLayer::kEptDirty, &a); };
  reg.register_notifier(TrackLayer::kEptDirty, &a);
  reg.register_notifier(TrackLayer::kEptDirty, &b);
  reg.dispatch(TrackLayer::kEptDirty, {});
  EXPECT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries.size(), 1u) << "later notifiers still ran";
  reg.dispatch(TrackLayer::kEptDirty, {});
  EXPECT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries.size(), 2u);
}

TEST(WriteTrackRegistryTest, FlushChainDeliversRangeTeardown) {
  WriteTrackRegistry reg;
  Recorder a;
  reg.register_flush(&a);
  reg.notify_flush(7, 0x1000, 0x9000);
  ASSERT_EQ(a.flushes.size(), 1u);
  EXPECT_EQ(a.flushes[0].pid, 7u);
  EXPECT_EQ(a.flushes[0].start, 0x1000u);
  EXPECT_EQ(a.flushes[0].end, 0x9000u);
  reg.unregister_flush(&a);
  reg.notify_flush(7, 0x1000, 0x9000);
  EXPECT_EQ(a.flushes.size(), 1u);
}

// ---- EPT write-protection fault path (sim level) ----------------------------

struct WpFixture {
  WpFixture()
      : machine(2 * kGiB, CostModel::unit()),
        hv(machine),
        vm(hv.create_vm(kGiB)),
        mmu(vm.vcpu(), vm.ept()) {
    pt.map(kGva, kGpa, true);
  }
  static constexpr Gva kGva = 0x100000;
  static constexpr Gpa kGpa = 0x5000;
  sim::Machine machine;
  hv::Hypervisor hv;
  hv::Vm& vm;
  sim::GuestPageTable pt;
  sim::Mmu mmu;
};

/// A KVM-page_track-style consumer: records the faulting page, restores
/// write access, and invalidates the stale translation.
struct WpHandler final : sim::PageTrackNotifier {
  explicit WpHandler(sim::Ept& ept) : ept_(ept) {}
  bool on_track(TrackLayer, const TrackEvent& ev) override {
    faults.push_back(ev.gpa_page);
    if (sim::EptEntry* e = ept_.entry(ev.gpa_page); e != nullptr) {
      e->writable = true;
    }
    ev.vcpu->tlb().invalidate_page(ev.pid, ev.gva_page);
    return true;
  }
  sim::Ept& ept_;
  std::vector<Gpa> faults;
};

TEST(EptWriteProtect, FaultDispatchesToHandlerAndWriteCompletes) {
  WpFixture f;
  ASSERT_EQ(f.mmu.access(1, f.pt, WpFixture::kGva, true).status,
            sim::Mmu::Status::kOk);  // establish the EPT mapping

  WpHandler handler(f.vm.ept());
  f.vm.track().register_notifier(TrackLayer::kEptWpFault, &handler);
  sim::EptEntry* e = f.vm.ept().entry(WpFixture::kGpa);
  ASSERT_NE(e, nullptr);
  e->writable = false;
  f.vm.vcpu().tlb().invalidate_page(1, WpFixture::kGva);

  const auto r = f.mmu.access(1, f.pt, WpFixture::kGva, true);
  EXPECT_EQ(r.status, sim::Mmu::Status::kOk);
  ASSERT_EQ(handler.faults.size(), 1u);
  EXPECT_EQ(handler.faults[0], WpFixture::kGpa);
  EXPECT_TRUE(e->writable) << "handler restored write access";
  EXPECT_GE(f.vm.vcpu().ctx().counters.get(Event::kEptWpFault), 1u);
  f.vm.track().unregister_notifier(TrackLayer::kEptWpFault, &handler);
}

TEST(EptWriteProtect, UnhandledFaultIsAConfigurationError) {
  WpFixture f;
  ASSERT_EQ(f.mmu.access(1, f.pt, WpFixture::kGva, true).status,
            sim::Mmu::Status::kOk);
  sim::EptEntry* e = f.vm.ept().entry(WpFixture::kGpa);
  ASSERT_NE(e, nullptr);
  e->writable = false;
  f.vm.vcpu().tlb().invalidate_page(1, WpFixture::kGva);
  EXPECT_THROW((void)f.mmu.access(1, f.pt, WpFixture::kGva, true), std::logic_error);
}

TEST(EptWriteProtect, StaleTlbEntryBypassesTheFaultUntilInvalidated) {
  // Regression (satellite fix): protecting an EPT entry without shooting
  // down the vCPU's cached translation lets writes bypass the permission
  // fault — the consumer silently misses dirty pages. The TLB serves a
  // cached writable+dirty translation without any walk, exactly as real
  // hardware does, so every protect/unprotect *must* invalidate.
  WpFixture f;
  ASSERT_EQ(f.mmu.access(1, f.pt, WpFixture::kGva, true).status,
            sim::Mmu::Status::kOk);  // TLB now caches writable+dirty

  WpHandler handler(f.vm.ept());
  f.vm.track().register_notifier(TrackLayer::kEptWpFault, &handler);
  sim::EptEntry* e = f.vm.ept().entry(WpFixture::kGpa);
  ASSERT_NE(e, nullptr);
  e->writable = false;  // protect, deliberately WITHOUT invalidating

  (void)f.mmu.access(1, f.pt, WpFixture::kGva, true);
  EXPECT_EQ(handler.faults.size(), 0u)
      << "stale translation served the write: no fault observed";

  f.vm.vcpu().tlb().invalidate_page(1, WpFixture::kGva);
  (void)f.mmu.access(1, f.pt, WpFixture::kGva, true);
  EXPECT_EQ(handler.faults.size(), 1u)
      << "after invalidation the write faults as required";
  f.vm.track().unregister_notifier(TrackLayer::kEptWpFault, &handler);
}

// ---- WpTracker backend ------------------------------------------------------

TEST(WpTrackerTest, CatchesRewritesOfTlbCachedPages) {
  // The tracker-level face of the TLB regression: pages written (and TLB
  // cached) before init must still be caught after the protect pass.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 32;
  const Gva base = proc.mmap(pages * kPageSize);
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  auto tracker = lib::make_tracker(lib::Technique::kWp, k, proc);
  tracker->init();
  tracker->begin_interval();
  for (u64 i = 0; i < 8; ++i) proc.touch_write(base + i * kPageSize);
  const std::vector<Gva> dirty = tracker->collect();
  k.scheduler().exit_process(proc.pid());

  ASSERT_EQ(dirty.size(), 8u);
  for (u64 i = 0; i < 8; ++i) EXPECT_EQ(dirty[i], base + i * kPageSize);
  tracker->shutdown();
}

TEST(WpTrackerTest, ReprotectsAcrossIntervalsAndCatchesDemandMappedPages) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 16;
  const Gva base = proc.mmap(pages * kPageSize);
  k.scheduler().enter_process(proc.pid());
  proc.touch_write(base);  // only page 0 is mapped when the tracker attaches

  auto tracker = lib::make_tracker(lib::Technique::kWp, k, proc);
  tracker->init();
  tracker->begin_interval();
  // Interval 1: one protected page rewritten + several never-seen pages
  // demand-mapped by first touch.
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), pages);

  // Interval 2: everything collected was re-protected, so rewrites fault
  // and are caught again.
  tracker->begin_interval();
  for (u64 i = 0; i < 4; ++i) proc.touch_write(base + i * kPageSize);
  dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), 4u);

  // Interval 3: nothing written, nothing reported.
  tracker->begin_interval();
  dirty = tracker->collect();
  EXPECT_TRUE(dirty.empty());
  k.scheduler().exit_process(proc.pid());
  tracker->shutdown();

  // Shutdown restored write access: writes proceed without a tracker.
  k.scheduler().enter_process(proc.pid());
  proc.touch_write(base);
  k.scheduler().exit_process(proc.pid());
}

// ---- SPML reverse-map cache vs recycled guest frames ------------------------

TEST(SpmlRmapCache, MunmapDropsStaleReverseMappings) {
  // Unmapping a tracked VMA frees its guest frames; a later mapping
  // recycles them. A stale GPA->GVA cache entry would reverse-map the new
  // mapping's writes to the *old* VMA's addresses.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 24;
  const Gva old_base = proc.mmap(pages * kPageSize);

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(old_base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  (void)tracker->collect();  // populates the GPA->GVA cache for old_base

  proc.munmap(old_base);  // frees the frames; flush drops the cache range
  const Gva new_base = proc.mmap(pages * kPageSize);
  ASSERT_NE(new_base, old_base);

  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(new_base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  const std::vector<Gva> dirty = tracker->collect();

  std::unordered_set<Gva> expected;
  for (u64 i = 0; i < pages; ++i) expected.insert(new_base + i * kPageSize);
  EXPECT_EQ(dirty.size(), pages);
  for (const Gva page : dirty) {
    EXPECT_TRUE(expected.contains(page))
        << "reverse map produced a stale (unmapped) address 0x" << std::hex << page;
  }
  tracker->shutdown();
}

// Swap-out frees a page's guest frame without unmapping its VMA. The frame
// goes back to the LIFO free list, so the next demand fault reuses it; a
// cache entry trusted without checking the page table would report the
// evicted address and miss the page actually written.
TEST(SpmlRmapCache, SwapEvictionDropsStaleReverseMappings) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 8;
  const Gva old_base = proc.mmap(pages * kPageSize);
  const Gva new_base = proc.mmap(pages * kPageSize);

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(old_base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  (void)tracker->collect();  // caches GPA -> GVA for old_base

  const guest::SwapDaemon::EvictStats st = k.swap().evict(proc, pages);
  ASSERT_EQ(st.evicted_clean + st.evicted_dirty, pages);
  ASSERT_EQ(k.swap().swapped_out(proc), pages);

  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(new_base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  const std::vector<Gva> dirty = tracker->collect();

  std::vector<Gva> expected;
  for (u64 i = 0; i < pages; ++i) expected.push_back(new_base + i * kPageSize);
  EXPECT_EQ(dirty, expected) << "a recycled frame reverse-mapped to its evicted address";
  tracker->shutdown();
}

// Randomized whole-process churn: writes spread over several VMAs, with
// munmap/mmap and swap eviction between intervals recycling guest frames.
// Each interval's collect must equal the truth ledger, and the reverse-map
// charges must follow a model of the cache: one lookup per logged GPA that
// has no entry still mapped by the page table, one pagemap scan when there
// is any such GPA.
TEST(SpmlRmapCache, CollectMatchesTruthUnderChurn) {
  for (const u64 seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto pick = [&](u64 n) { return std::uniform_int_distribution<u64>(0, n - 1)(rng); };
    lib::TestBed bed;
    auto& k = bed.kernel();
    auto& proc = k.create_process();
    sim::GuestPageTable& pt = k.page_table(proc);
    const EventCounters& ev = k.ctx().counters;

    struct Region {
      Gva base;
      u64 pages;
    };
    std::vector<Region> vmas;
    const auto map_region = [&] {
      const u64 n = 8 + pick(40);
      vmas.push_back({proc.mmap(n * kPageSize), n});
    };
    for (int i = 0; i < 4; ++i) map_region();

    // The cache model: GPA page -> the GVA a collect last reported for it.
    std::unordered_map<Gpa, Gva> model;
    const auto maps = [&](Gva gva, Gpa gpa) {
      const sim::GuestPageTable::Lookup l = pt.lookup(gva);
      return l.pte != nullptr && l.pte->present && l.gpa_page == gpa;
    };

    auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
    tracker->init();
    for (int interval = 0; interval < 12; ++interval) {
      if (interval > 0) {
        switch (pick(3)) {
          case 0: {  // unmap one VMA, map a fresh one (frames recycle)
            const std::size_t victim = pick(vmas.size());
            proc.munmap(vmas[victim].base);
            vmas.erase(vmas.begin() + static_cast<std::ptrdiff_t>(victim));
            map_region();
            break;
          }
          case 1:
            (void)k.swap().evict(proc, 1 + pick(16));
            break;
          default:
            break;
        }
      }

      proc.truth_reset();
      tracker->begin_interval();
      k.scheduler().enter_process(proc.pid());
      for (u64 w = 1 + pick(48); w > 0; --w) {
        const Region& r = vmas[pick(vmas.size())];
        proc.touch_write(r.base + pick(r.pages) * kPageSize);
      }
      k.scheduler().exit_process(proc.pid());

      std::vector<Gva> truth;
      for (const auto& item : proc.truth_dirty()) truth.push_back(item.first);
      std::sort(truth.begin(), truth.end());
      u64 uncached = 0;
      for (const Gva gva : truth) {
        const Gpa gpa = pt.lookup(gva).gpa_page;
        const auto it = model.find(gpa);
        if (it == model.end() || !maps(it->second, gpa)) ++uncached;
      }

      const u64 lookups = ev.get(Event::kReverseMapLookup);
      const u64 scans = ev.get(Event::kPagemapScan);
      const std::vector<Gva> dirty = tracker->collect();
      EXPECT_EQ(dirty, truth) << "interval " << interval;
      EXPECT_EQ(ev.get(Event::kReverseMapLookup) - lookups, uncached)
          << "interval " << interval;
      EXPECT_EQ(ev.get(Event::kPagemapScan) - scans, uncached == 0 ? 0u : 1u)
          << "interval " << interval;
      for (const Gva gva : dirty) model[pt.lookup(gva).gpa_page] = gva;
    }
    tracker->shutdown();
  }
}

// Interval 1 writes pages A; interval 2 writes A and B. Only B's GPAs miss
// the reverse-map cache, so interval 2 pays one pagemap scan (none when B is
// empty) and exactly |B| per-GPA lookups, and each collect equals the truth
// set.
void expect_rmap_charges_only_misses(u64 b_pages) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 a_pages = 16;
  const Gva base = proc.mmap((a_pages + b_pages) * kPageSize);
  const EventCounters& ev = k.ctx().counters;

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  const auto interval = [&](u64 pages) {
    proc.truth_reset();
    tracker->begin_interval();
    k.scheduler().enter_process(proc.pid());
    for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
    k.scheduler().exit_process(proc.pid());
    std::vector<Gva> dirty = tracker->collect();
    std::sort(dirty.begin(), dirty.end());
    std::vector<Gva> truth;
    for (const auto& item : proc.truth_dirty()) truth.push_back(item.first);
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(dirty, truth) << "collect differs from the truth set";
  };

  u64 lookups = ev.get(Event::kReverseMapLookup);
  u64 scans = ev.get(Event::kPagemapScan);
  interval(a_pages);
  EXPECT_EQ(ev.get(Event::kReverseMapLookup) - lookups, a_pages);
  EXPECT_EQ(ev.get(Event::kPagemapScan) - scans, 1u);

  lookups = ev.get(Event::kReverseMapLookup);
  scans = ev.get(Event::kPagemapScan);

  interval(a_pages + b_pages);
  EXPECT_EQ(ev.get(Event::kReverseMapLookup) - lookups, b_pages)
      << "only uncached GPAs may pay a reverse-map lookup";
  EXPECT_EQ(ev.get(Event::kPagemapScan) - scans, b_pages == 0 ? 0u : 1u);
  tracker->shutdown();
}

TEST(SpmlRmapCache, ResolvesOnlyUncachedGpas) {
  expect_rmap_charges_only_misses(/*b_pages=*/5);
  expect_rmap_charges_only_misses(/*b_pages=*/0);
}

// A hypervisor harvest mid-interval re-arms the dirty flags of the pages it
// took, so the next write to a page logs it a second time and the SPML ring
// carries it twice. The collect must return it once.
TEST(SpmlRmapCache, PageDrainedTwiceInOneIntervalIsReturnedOnce) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(2 * kPageSize);
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < 2; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  const EventCounters& ev = k.ctx().counters;

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  bed.hypervisor().enable_pml_for_hyp(bed.vm());
  tracker->begin_interval();
  const u64 fetched = ev.get(Event::kRingBufFetchEntry);
  k.scheduler().enter_process(proc.pid());
  proc.touch_write(base);
  proc.touch_write(base + kPageSize);
  (void)bed.hypervisor().harvest_hyp_dirty(bed.vm());
  proc.touch_write(base);
  k.scheduler().exit_process(proc.pid());
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(ev.get(Event::kRingBufFetchEntry) - fetched, 3u)
      << "the first page must reach the SPML ring twice";
  EXPECT_EQ(dirty, (std::vector<Gva>{base, base + kPageSize}));
  bed.hypervisor().disable_pml_for_hyp(bed.vm());
  tracker->shutdown();
}

// ---- migration + guest EPML coexistence -------------------------------------

struct CoexistOutcome {
  std::vector<Gva> interval1, interval2;
  double collect_us = 0.0;  ///< tracker-attributed collect time, both intervals.
  double arm_us = 0.0;
  u64 migration_sent = 0;
};

/// One tenant running an EPML session over two intervals; if `migrate` is
/// set, a pre-copy migration (hypervisor-side kPmlDrain consumer) runs
/// between the intervals and unregisters when it converges.
CoexistOutcome run_epml_session(bool migrate) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());

  auto tracker = lib::make_tracker(lib::Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();

  CoexistOutcome out;
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());

  if (migrate) {
    hv::MigrationEngine engine(bed.hypervisor());
    const hv::MigrationReport rep = engine.migrate(bed.vm(), [] {});
    EXPECT_TRUE(rep.converged);
    out.migration_sent = rep.pages_sent;
  }

  out.interval1 = tracker->collect();
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 16; i < 48; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  out.interval2 = tracker->collect();

  out.collect_us = tracker->phases().collect.count();
  out.arm_us = tracker->phases().arm.count();
  tracker->shutdown();
  return out;
}

TEST(Coexistence, MigrationAndEpmlBothCompleteAndIndependent) {
  const CoexistOutcome with = run_epml_session(/*migrate=*/true);
  const CoexistOutcome without = run_epml_session(/*migrate=*/false);

  // Both consumers saw complete dirty sets: the EPML session caught every
  // tracked write in each interval; the migration sent at least the full
  // initial copy.
  EXPECT_EQ(with.interval1.size(), 16u);
  EXPECT_EQ(with.interval2.size(), 32u);
  EXPECT_GE(with.migration_sent, 64u);

  // Registering + unregistering the hypervisor-side consumer around the
  // interval boundary must not perturb the EPML session's results: same
  // dirty sets, bit-identical tracker-attributed virtual time.
  EXPECT_EQ(with.interval1, without.interval1);
  EXPECT_EQ(with.interval2, without.interval2);
  EXPECT_EQ(with.collect_us, without.collect_us);
  EXPECT_EQ(with.arm_us, without.arm_us);
}

// ---- one kPmlDrain dispatch per drained buffer ------------------------------

/// A consumer that takes drained buffers whole, recording each span.
struct SpanRecorder final : sim::PageTrackNotifier {
  bool on_track(TrackLayer, const TrackEvent& ev) override {
    gpas.push_back(ev.gpa_page);
    return true;
  }
  void on_drain(sim::Vcpu&, std::span<const Gpa> span) override {
    ++spans;
    gpas.insert(gpas.end(), span.begin(), span.end());
    if (on_deliver) on_deliver();
  }
  std::vector<Gpa> gpas;
  u64 spans = 0;
  std::function<void()> on_deliver;
};

TEST(PageTrack, DrainSpanMatchesPerGpaDispatch) {
  lib::TestBed bed;
  sim::Vcpu& vcpu = bed.vm().vcpu();
  const std::vector<Gpa> drained = {0x5000, 0x1000, 0x9000, 0x1000, 0x3000};

  // The same chain twice: one registry takes the buffer as one span, the
  // other one dispatch() per GPA. `plain` only implements on_track.
  WriteTrackRegistry bulk, per_gpa;
  SpanRecorder b_span, p_span;
  Recorder b_plain, p_plain, b_off, p_off;
  std::vector<int> order;
  b_span.on_deliver = [&] { order.push_back(0); };
  b_plain.on_deliver = [&] { order.push_back(1); };
  for (WriteTrackRegistry* reg : {&bulk, &per_gpa}) {
    const bool is_bulk = reg == &bulk;
    reg->register_notifier(TrackLayer::kPmlDrain, is_bulk ? &b_off : &p_off, false);
    reg->register_notifier(TrackLayer::kPmlDrain, is_bulk ? &b_span : &p_span);
    reg->register_notifier(TrackLayer::kPmlDrain, is_bulk ? &b_plain : &p_plain);
  }
  bulk.dispatch_drain(vcpu, drained);
  for (const Gpa gpa : drained) per_gpa.dispatch(TrackLayer::kPmlDrain, {&vcpu, 0, 0, gpa});

  // Each consumer sees every GPA in logging order, consumers in
  // registration order: the span consumer's whole buffer, then the
  // on_track-only consumer one event per GPA.
  EXPECT_EQ(b_span.gpas, drained);
  EXPECT_EQ(b_span.spans, 1u);
  EXPECT_EQ(p_span.gpas, drained);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 1, 1, 1, 1}));
  ASSERT_EQ(b_plain.deliveries.size(), drained.size());
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(b_plain.deliveries[i].layer, TrackLayer::kPmlDrain);
    EXPECT_EQ(b_plain.deliveries[i].ev.vcpu, &vcpu);
    EXPECT_EQ(b_plain.deliveries[i].ev.gpa_page, drained[i]);
    EXPECT_EQ(b_plain.deliveries[i].ev.gpa_page, p_plain.deliveries[i].ev.gpa_page);
  }
  // Counters advance by the span length, as per-GPA dispatch advances them
  // (REG-3); the disabled consumer receives and counts nothing.
  EXPECT_EQ(bulk.events_dispatched(TrackLayer::kPmlDrain), drained.size());
  EXPECT_EQ(per_gpa.events_dispatched(TrackLayer::kPmlDrain), drained.size());
  for (const auto& [b, p] : {std::pair<const sim::PageTrackNotifier*, const sim::PageTrackNotifier*>{
                                 &b_span, &p_span},
                             {&b_plain, &p_plain},
                             {&b_off, &p_off}}) {
    EXPECT_EQ(bulk.events_delivered(TrackLayer::kPmlDrain, b),
              per_gpa.events_delivered(TrackLayer::kPmlDrain, p));
  }
  EXPECT_EQ(bulk.events_delivered(TrackLayer::kPmlDrain, &b_off), 0u);
  EXPECT_TRUE(b_off.deliveries.empty());
  // An empty buffer is no event.
  bulk.dispatch_drain(vcpu, {});
  EXPECT_EQ(bulk.events_dispatched(TrackLayer::kPmlDrain), drained.size());
}

TEST(PageTrack, DrainExpandsA2MiBEntryTo512Pages) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.host_mem_bytes = 256 * kMiB;
  opts.ept_huge = true;
  opts.eager_split = false;  // keep the huge leaf: its PML entry is 2 MiB-tagged
  lib::TestBed bed(opts);
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(4 * kMiB);
  proc.touch_range_write(base, 4 * kMiB);
  const Gpa gpa = k.page_table(proc).pte(base + 7 * kPageSize)->gpa_page;
  ASSERT_EQ(bed.vm().ept().lookup(gpa).gran, PageGran::k2M);

  hv::Vm& vm = bed.vm();
  bed.hypervisor().enable_pml_for_hyp(vm);
  SpanRecorder rec;
  vm.track().register_notifier(TrackLayer::kPmlDrain, &rec);
  const u64 dispatched = vm.track().events_dispatched(TrackLayer::kPmlDrain);
  proc.touch_write(base + 7 * kPageSize);
  const std::vector<Gpa> harvested = bed.hypervisor().harvest_hyp_dirty(vm);

  const Gpa leaf = gran_floor(gpa, PageGran::k2M);
  ASSERT_EQ(rec.gpas.size(), gran_pages(PageGran::k2M));
  EXPECT_EQ(rec.spans, 1u);
  for (u64 i = 0; i < rec.gpas.size(); ++i) EXPECT_EQ(rec.gpas[i], leaf + i * kPageSize);
  EXPECT_EQ(vm.track().events_dispatched(TrackLayer::kPmlDrain) - dispatched,
            gran_pages(PageGran::k2M));
  EXPECT_EQ(harvested, rec.gpas);  // the dirty ring got the same pages
  vm.track().unregister_notifier(TrackLayer::kPmlDrain, &rec);
  bed.hypervisor().disable_pml_for_hyp(vm);
}

// ---- hardware circuits are permanent chain members --------------------------

TEST(HardwareCircuits, RegisteredAtVcpuConstruction) {
  lib::TestBed bed;
  WriteTrackRegistry& track = bed.vm().track();
  // The PML logging circuits occupy the head of their chains from birth, so
  // software consumers registered later always run after the hardware.
  EXPECT_GE(track.notifier_count(TrackLayer::kGuestPtDirty), 1u);
  EXPECT_GE(track.notifier_count(TrackLayer::kEptDirty), 1u);
  EXPECT_GE(track.notifier_count(TrackLayer::kEptAccessed), 1u);
}

}  // namespace
}  // namespace ooh

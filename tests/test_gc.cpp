// Boehm-like GC tests: liveness correctness (reachable objects survive,
// garbage is reclaimed, memory is reused), incremental marking driven by
// dirty pages, and the per-technique cost shape of Fig. 5.
#include <gtest/gtest.h>

#include "ooh/testbed.hpp"
#include "trackers/boehmgc/gc.hpp"

namespace ooh::gc {
namespace {

using lib::Technique;

struct GcFixture {
  GcFixture(u64 heap_mb = 64, u64 threshold = 256 * kPageSize)
      : bed(), kernel(bed.kernel()), proc(kernel.create_process()),
        heap(kernel, proc, heap_mb * kMiB, threshold) {}
  lib::TestBed bed;
  guest::GuestKernel& kernel;
  guest::Process& proc;
  GcHeap heap;
};

TEST(GcHeap, GarbageIsFreedLiveSurvives) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva root = h.alloc(2, 8);
  h.add_root(root);
  const Gva kept = h.alloc(0, 8);
  h.write_ref(root, 0, kept);
  std::vector<Gva> garbage;
  for (int i = 0; i < 100; ++i) garbage.push_back(h.alloc(0, 64));

  const GcCycleStats st = h.collect();
  EXPECT_EQ(st.objects_freed, 100u);
  EXPECT_TRUE(h.is_object(root));
  EXPECT_TRUE(h.is_object(kept));
  for (const Gva g : garbage) EXPECT_FALSE(h.is_object(g));
  EXPECT_EQ(h.live_objects(), 2u);
}

TEST(GcHeap, DeepChainsAndCyclesCollectCorrectly) {
  GcFixture f;
  GcHeap& h = f.heap;
  // A reachable chain of 1000 objects.
  const Gva head = h.alloc(1, 0);
  h.add_root(head);
  Gva cur = head;
  for (int i = 0; i < 999; ++i) {
    const Gva next = h.alloc(1, 0);
    h.write_ref(cur, 0, next);
    cur = next;
  }
  // An unreachable 3-cycle (cycles must not leak).
  const Gva a = h.alloc(1, 0), b = h.alloc(1, 0), c = h.alloc(1, 0);
  h.write_ref(a, 0, b);
  h.write_ref(b, 0, c);
  h.write_ref(c, 0, a);

  (void)h.collect();
  EXPECT_EQ(h.live_objects(), 1000u);
  EXPECT_FALSE(h.is_object(a));
}

TEST(GcHeap, DroppedRootBecomesGarbage) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva root = h.alloc(1, 0);
  h.add_root(root);
  (void)h.collect();
  EXPECT_TRUE(h.is_object(root));
  h.remove_root(root);
  (void)h.collect();
  EXPECT_FALSE(h.is_object(root));
}

TEST(GcHeap, FreedMemoryIsReused) {
  GcFixture f;
  GcHeap& h = f.heap;
  std::vector<Gva> garbage;
  for (int i = 0; i < 50; ++i) garbage.push_back(h.alloc(0, 256));
  const u64 used_before = h.heap_used_bytes();
  (void)h.collect();
  for (int i = 0; i < 50; ++i) (void)h.alloc(0, 256);
  EXPECT_EQ(h.heap_used_bytes(), used_before)
      << "same-size allocations must come from the free list";
}

TEST(GcHeap, AllocationTriggersCollectionAtThreshold) {
  GcFixture f(/*heap_mb=*/64, /*threshold=*/64 * 1024);
  GcHeap& h = f.heap;
  for (int i = 0; i < 5000; ++i) (void)h.alloc(0, 64);
  EXPECT_GT(h.stats().cycle_count(), 1u);
  EXPECT_GT(f.bed.ctx().counters.get(Event::kGcCycle), 1u);
}

TEST(GcHeap, RefSlotAndDataBoundsChecked) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva o = h.alloc(2, 16);
  EXPECT_THROW(h.write_ref(o, 2, 0), std::out_of_range);
  EXPECT_THROW((void)h.read_ref(o, 5), std::out_of_range);
  EXPECT_THROW(h.write_data(o, 16, 1), std::out_of_range);
  EXPECT_THROW(h.write_data(o, ~u64{0} - 7, 1), std::out_of_range) << "offset + 8 wraps";
  EXPECT_THROW(h.write_ref(o, 0, 0xdeadbeef), std::invalid_argument)
      << "targets must be live objects";
  EXPECT_THROW((void)h.alloc(0, 999 * kGiB), std::bad_alloc);
  EXPECT_THROW((void)h.alloc(0, ~u64{0} - 15), std::bad_alloc) << "object size wraps to 0";
}

TEST(GcHeap, SweepRefillsFreeListsInAddressOrder) {
  GcFixture f;
  GcHeap& h = f.heap;
  std::vector<Gva> garbage;
  for (int i = 0; i < 8; ++i) garbage.push_back(h.alloc(0, 32));
  (void)h.collect();
  // The sweep pushes garbage in ascending address order and allocation pops
  // from the back, so reuse runs from the highest address down -- whatever
  // order the host containers hold the objects in.
  for (auto it = garbage.rbegin(); it != garbage.rend(); ++it) {
    EXPECT_EQ(h.alloc(0, 32), *it);
  }
}

TEST(GcHeap, WriteRefReadRefRoundTrip) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva a = h.alloc(2, 0);
  const Gva b = h.alloc(0, 0);
  h.add_root(a);
  h.write_ref(a, 1, b);
  EXPECT_EQ(h.read_ref(a, 1), b);
  EXPECT_EQ(h.read_ref(a, 0), 0u);
  h.write_ref(a, 1, 0);
  EXPECT_EQ(h.read_ref(a, 1), 0u);
  (void)h.collect();
  EXPECT_FALSE(h.is_object(b)) << "cleared ref makes b garbage";
}

TEST(GcHeap, DanglingLocalRootThrows) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva o = h.alloc(1, 0);
  (void)h.collect();
  ASSERT_FALSE(h.is_object(o));
  const GcHeap::Local keep(h, o);
  EXPECT_THROW((void)h.collect(), std::out_of_range)
      << "a local root naming a freed object is a dangling reference";
}

TEST(GcHeap, WriteRefToFreedTargetThrows) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva root = h.alloc(1, 0);
  h.add_root(root);
  const Gva target = h.alloc(0, 8);
  (void)h.collect();
  ASSERT_FALSE(h.is_object(target));
  EXPECT_THROW(h.write_ref(root, 0, target), std::invalid_argument);
  EXPECT_EQ(h.read_ref(root, 0), 0u) << "the rejected store left the field null";
}

TEST(GcHeap, RootSetIsIdempotent) {
  GcFixture f;
  GcHeap& h = f.heap;
  const Gva a = h.alloc(0, 8);
  const Gva b = h.alloc(0, 8);
  h.add_root(a);
  h.add_root(a);
  h.remove_root(b);  // not a root: no-op
  h.remove_root(0);  // not an object: no-op
  (void)h.collect();
  EXPECT_TRUE(h.is_object(a));
  EXPECT_FALSE(h.is_object(b));
  h.remove_root(a);  // one removal undoes any number of adds
  (void)h.collect();
  EXPECT_FALSE(h.is_object(a));
}

class GcIncremental : public ::testing::TestWithParam<Technique> {};

TEST_P(GcIncremental, LaterCyclesRescanOnlyDirtyPages) {
  GcFixture f;
  GcHeap& h = f.heap;
  h.set_technique(GetParam());
  guest::Scheduler& sched = f.kernel.scheduler();

  sched.enter_process(f.proc.pid());
  // Build a sizable stable structure.
  const Gva root = h.alloc(1, 0);
  h.add_root(root);
  Gva cur = root;
  for (int i = 0; i < 2000; ++i) {
    const Gva next = h.alloc(1, 0);
    h.write_ref(cur, 0, next);
    cur = next;
  }
  const GcCycleStats full = h.collect();
  EXPECT_TRUE(full.full);
  EXPECT_GE(full.objects_marked, 2000u);

  // Touch a handful of objects; the next cycle must re-scan only their pages.
  h.write_ref(cur, 0, 0);
  const GcCycleStats inc = h.collect();
  sched.exit_process(f.proc.pid());
  EXPECT_FALSE(inc.full);
  EXPECT_LT(inc.pages_rescanned, 50u)
      << "incremental cycle rescanned far too many pages";
  EXPECT_LT(inc.objects_marked, full.objects_marked / 4);
}

INSTANTIATE_TEST_SUITE_P(Techniques, GcIncremental,
                         ::testing::Values(Technique::kProc, Technique::kSpml,
                                           Technique::kEpml, Technique::kOracle),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case Technique::kProc: return "proc";
                             case Technique::kSpml: return "spml";
                             case Technique::kEpml: return "epml";
                             case Technique::kOracle: return "oracle";
                             default: return "other";
                           }
                         });

TEST(GcIncrementalCost, EpmlDirtyQueryCheaperThanProcAndSpml) {
  // Fig. 5's mechanism: the techniques differ in the cost of *finding* the
  // dirty pages at each cycle.
  auto query_time = [](Technique t) {
    GcFixture f;
    GcHeap& h = f.heap;
    h.set_technique(t);
    guest::Scheduler& sched = f.kernel.scheduler();
    sched.enter_process(f.proc.pid());
    const Gva root = h.alloc(1, 0);
    h.add_root(root);
    Gva cur = root;
    for (int i = 0; i < 3000; ++i) {
      const Gva next = h.alloc(1, 0);
      h.write_ref(cur, 0, next);
      cur = next;
    }
    (void)h.collect();                 // full cycle
    h.write_ref(root, 0, root == cur ? 0 : h.read_ref(root, 0));  // dirty a page
    const GcCycleStats inc = h.collect();
    sched.exit_process(f.proc.pid());
    return inc.dirty_query.count();
  };
  const double epml = query_time(Technique::kEpml);
  const double proc = query_time(Technique::kProc);
  const double spml = query_time(Technique::kSpml);
  EXPECT_LT(epml * 5, proc);
  EXPECT_LT(epml, spml);
  // Paper §VI-E: *ignoring the first cycle* (where SPML reverse-maps), SPML
  // outperforms /proc, because later cycles reuse the first cycle's
  // addresses while /proc rescans the pagemap every cycle.
  EXPECT_LT(spml * 5, proc) << "cached SPML beats /proc after cycle 1";
}

TEST(GcStatsTest, CyclesAccumulate) {
  GcFixture f(/*heap_mb=*/64, /*threshold=*/32 * 1024);
  GcHeap& h = f.heap;
  for (int i = 0; i < 3000; ++i) (void)h.alloc(0, 64);
  const GcStats& stats = h.stats();
  EXPECT_GE(stats.cycle_count(), 2u);
  EXPECT_GT(stats.total_gc_time.count(), 0.0);
  EXPECT_GT(stats.total_allocated_bytes, 3000u * 64u);
  unsigned expect_cycle = 1;
  for (const GcCycleStats& c : stats.cycles) {
    EXPECT_EQ(c.cycle, expect_cycle++);
    EXPECT_GE(c.duration.count(), 0.0);
  }
}

}  // namespace
}  // namespace ooh::gc

// Unit tests for the paging substrate: physical memory, radix tables, guest
// page table, EPT, TLB.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/ept.hpp"
#include "sim/page_table.hpp"
#include "sim/phys_mem.hpp"
#include "sim/radix.hpp"
#include "sim/tlb.hpp"

namespace ooh::sim {
namespace {

// ---- physical memory -----------------------------------------------------------

TEST(PhysicalMemory, AllocatesDistinctFramesAndReservesZero) {
  PhysicalMemory pm(1 * kMiB);
  std::set<Hpa> frames;
  for (int i = 0; i < 10; ++i) {
    const Hpa f = pm.alloc_frame();
    EXPECT_NE(f, 0u) << "frame 0 must stay reserved";
    EXPECT_TRUE(is_page_aligned(f));
    EXPECT_TRUE(frames.insert(f).second);
  }
  EXPECT_EQ(pm.used_frames(), 10u);
}

TEST(PhysicalMemory, ExhaustionThrowsAndFreeRecycles) {
  PhysicalMemory pm(4 * kPageSize);  // 4 frames, 1 reserved
  const Hpa a = pm.alloc_frame();
  const Hpa b = pm.alloc_frame();
  const Hpa c = pm.alloc_frame();
  (void)b;
  (void)c;
  EXPECT_THROW((void)pm.alloc_frame(), std::bad_alloc);
  pm.free_frame(a);
  EXPECT_EQ(pm.alloc_frame(), a);
}

TEST(PhysicalMemory, LazyBackingAndWordAccess) {
  PhysicalMemory pm(64 * kMiB);  // four frame-table chunks
  const Hpa f = pm.alloc_frame();
  EXPECT_EQ(pm.backed_frames(), 0u);
  EXPECT_EQ(pm.frame_data_if_present(f), nullptr);
  EXPECT_EQ(pm.read_u64(f + 64), 0u);  // unbacked reads as zero
  pm.write_u64(f + 64, 0xDEADBEEF);
  EXPECT_EQ(pm.backed_frames(), 1u);
  EXPECT_EQ(pm.read_u64(f + 64), 0xDEADBEEFu);
  pm.free_frame(f);
  EXPECT_EQ(pm.backed_frames(), 0u);  // backing released with the frame

  // The recycled frame comes back unbacked: its next owner reads zeroes.
  const Hpa again = pm.alloc_frame();
  ASSERT_EQ(again, f);
  EXPECT_EQ(pm.frame_data_if_present(again), nullptr);
  EXPECT_EQ(pm.read_u64(again + 64), 0u);
  pm.frame_data(again)[0] = 1;
  EXPECT_EQ(pm.read_u64(again + 64), 0u) << "materialised contents start zeroed";

  // Touch frames across several table chunks in descending order: the
  // listing comes back in frame order all the same.
  const u64 chunk = PhysicalMemory::kChunkFrames;
  const Hpa run = pm.alloc_frames_contiguous(3 * chunk);
  const u64 first = page_index(run);
  const std::vector<u64> touched = {first + 2 * chunk + 5, first + chunk + 1, first + 7};
  for (const u64 fn : touched) pm.write_u64(fn << kPageShift, fn);
  std::vector<u64> want = touched;
  want.push_back(page_index(again));
  std::sort(want.begin(), want.end());
  const std::vector<u64> table = pm.backed_frame_table();
  EXPECT_EQ(table, want);
  EXPECT_EQ(pm.backed_frames(), want.size());
  for (const u64 fn : touched) EXPECT_EQ(pm.read_u64(fn << kPageShift), fn);
}

TEST(PhysicalMemory, OutOfRangeFrameFailsLoudly) {
  PhysicalMemory pm(4 * kPageSize);  // frames 0..3
  const Hpa past = pm.total_frames() << kPageShift;
  EXPECT_THROW((void)pm.frame_data(past), std::out_of_range);
  EXPECT_THROW(pm.write_u64(past + 8, 1), std::out_of_range);
  EXPECT_THROW((void)pm.frame_data(u64{1} << 50), std::out_of_range);
  EXPECT_EQ(pm.frame_data_if_present(past), nullptr);
  EXPECT_EQ(pm.read_u64(past + 8), 0u);
  EXPECT_EQ(pm.backed_frames(), 0u) << "a rejected access materialises nothing";
  // The last in-range frame still works.
  const Hpa last = (pm.total_frames() - 1) << kPageShift;
  pm.write_u64(last, 42);
  EXPECT_EQ(pm.read_u64(last), 42u);
}

// ---- radix ---------------------------------------------------------------------

TEST(RadixTable4, FindReturnsNullUntilEnsured) {
  RadixTable4<int> t;
  EXPECT_EQ(t.find(0x7f00'1234'5000), nullptr);
  int& v = t.ensure(0x7f00'1234'5000);
  v = 99;
  ASSERT_NE(t.find(0x7f00'1234'5678), nullptr);  // same page
  EXPECT_EQ(*t.find(0x7f00'1234'5000), 99);
}

TEST(RadixTable4, ForEachVisitsDistinctPages) {
  RadixTable4<int> t;
  const u64 addrs[] = {0x0, 0x1000, 0x200000, 0x40000000, 0x7f'ffff'f000};
  for (u64 a : addrs) t.ensure(a) = 1;
  u64 visited = 0;
  std::set<u64> pages;
  t.for_each([&](u64 page, int& v) {
    if (v == 1) {
      ++visited;
      pages.insert(page);
    }
  });
  EXPECT_EQ(visited, 5u);
  for (u64 a : addrs) EXPECT_TRUE(pages.contains(a));
}

// ---- guest page table ------------------------------------------------------------

TEST(GuestPageTable, MapUnmapAndFlags) {
  GuestPageTable pt;
  pt.map(0x10000000, 0x5000, /*writable=*/true);
  ASSERT_NE(pt.pte(0x10000123), nullptr);
  Pte* e = pt.pte(0x10000000);
  EXPECT_TRUE(e->present);
  EXPECT_TRUE(e->writable);
  EXPECT_FALSE(e->dirty);
  EXPECT_EQ(e->gpa_page, 0x5000u);
  EXPECT_EQ(pt.present_pages(), 1u);
  pt.unmap(0x10000000);
  EXPECT_FALSE(pt.pte(0x10000000)->present);
  EXPECT_EQ(pt.present_pages(), 0u);
}

TEST(GuestPageTable, RemapResetsFlags) {
  GuestPageTable pt;
  pt.map(0x1000, 0x2000, true);
  pt.pte(0x1000)->soft_dirty = true;
  pt.pte(0x1000)->dirty = true;
  pt.map(0x1000, 0x3000, false);
  EXPECT_FALSE(pt.pte(0x1000)->soft_dirty);
  EXPECT_FALSE(pt.pte(0x1000)->dirty);
  EXPECT_FALSE(pt.pte(0x1000)->writable);
  EXPECT_EQ(pt.present_pages(), 1u);  // remap does not double-count
}

TEST(GuestPageTable, ForEachPresentSkipsUnmapped) {
  GuestPageTable pt;
  pt.map(0x1000, 0x2000, true);
  pt.map(0x3000, 0x4000, true);
  pt.unmap(0x1000);
  u64 n = 0;
  pt.for_each_present([&](Gva gva, Pte&) {
    EXPECT_EQ(gva, 0x3000u);
    ++n;
  });
  EXPECT_EQ(n, 1u);
}

// ---- EPT -----------------------------------------------------------------------

TEST(Ept, TranslateAndDirtyFlags) {
  Ept ept;
  EXPECT_EQ(ept.entry(0x4000), nullptr);
  ept.map(0x4000, 0x9000);
  Hpa hpa = 0;
  ASSERT_TRUE(ept.translate(0x4abc, hpa));
  EXPECT_EQ(hpa, 0x9abcu);
  EXPECT_FALSE(ept.translate(0x8000, hpa));
  EptEntry* e = ept.entry(0x4000);
  EXPECT_FALSE(e->dirty);
  e->dirty = true;
  EXPECT_TRUE(ept.entry(0x4fff)->dirty);
  EXPECT_EQ(ept.present_pages(), 1u);
  ept.unmap(0x4000);
  EXPECT_FALSE(ept.translate(0x4000, hpa));
}

// ---- TLB -----------------------------------------------------------------------

TEST(Tlb, HitMissInvalidate) {
  Tlb tlb(16);
  EXPECT_EQ(tlb.lookup(1, 0x1000), nullptr);
  tlb.insert(1, 0x1000, {.gpa_page = 0x2000, .hpa_page = 0x3000, .writable = true, .dirty = false});
  ASSERT_NE(tlb.lookup(1, 0x1000), nullptr);
  EXPECT_EQ(tlb.lookup(2, 0x1000), nullptr) << "entries are pid-tagged";
  tlb.invalidate_page(1, 0x1000);
  EXPECT_EQ(tlb.lookup(1, 0x1000), nullptr);
}

TEST(Tlb, FlushPidIsSelective) {
  Tlb tlb(16);
  tlb.insert(1, 0x1000, {});
  tlb.insert(2, 0x1000, {});
  tlb.flush_pid(1);
  EXPECT_EQ(tlb.lookup(1, 0x1000), nullptr);
  EXPECT_NE(tlb.lookup(2, 0x1000), nullptr);
  tlb.flush_all();
  EXPECT_EQ(tlb.lookup(2, 0x1000), nullptr);
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, CapacityBoundRespected) {
  Tlb tlb(4);
  for (u64 i = 0; i < 100; ++i) tlb.insert(1, i * kPageSize, {});
  EXPECT_LE(tlb.size(), 4u);
  // The most recent insert always survives (it cannot be its own victim).
  EXPECT_NE(tlb.lookup(1, 99 * kPageSize), nullptr);
  // Exactly 4 of the 100 pages are present.
  int present = 0;
  for (u64 i = 0; i < 100; ++i) {
    if (tlb.lookup(1, i * kPageSize) != nullptr) ++present;
  }
  EXPECT_EQ(present, 4);
}

TEST(Tlb, ReinsertUpdatesEntry) {
  Tlb tlb(4);
  tlb.insert(1, 0x1000, {.gpa_page = 0, .hpa_page = 0, .writable = false, .dirty = false});
  tlb.insert(1, 0x1000, {.gpa_page = 0, .hpa_page = 0, .writable = true, .dirty = true});
  ASSERT_NE(tlb.lookup(1, 0x1000), nullptr);
  EXPECT_TRUE(tlb.lookup(1, 0x1000)->dirty);
  EXPECT_EQ(tlb.size(), 1u);
}

}  // namespace
}  // namespace ooh::sim

// Unit tests for the paging substrate: physical memory, radix tables, guest
// page table, EPT, TLB.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "base/host_block.hpp"
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
  const std::array<u8, 1> one = {1};
  pm.write(again, one);
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
  const Hpa past = pm.end_frame() << kPageShift;
  const std::array<u8, 8> word{};
  EXPECT_THROW(pm.zero(past), std::out_of_range);
  EXPECT_THROW(pm.write_u64(past + 8, 1), std::out_of_range);
  EXPECT_THROW(pm.write(past + 8, word), std::out_of_range);
  EXPECT_THROW(pm.zero(u64{1} << 50), std::out_of_range);
  EXPECT_THROW(pm.write((pm.end_frame() - 1) * kPageSize + kPageSize - 4, word),
               std::out_of_range)
      << "a write may not run past the end of its frame";
  EXPECT_EQ(pm.frame_data_if_present(past), nullptr);
  EXPECT_EQ(pm.read_u64(past + 8), 0u);
  EXPECT_EQ(pm.backed_frames(), 0u) << "a rejected access materialises nothing";
  // The last in-range frame still works.
  const Hpa last = (pm.end_frame() - 1) << kPageShift;
  pm.write_u64(last, 42);
  EXPECT_EQ(pm.read_u64(last), 42u);
}

// Every write marks the 64-byte lines it covers; a claim hands them to the
// copy that claimed the frame last and clears them, and hands every line to
// any other copy.
TEST(PhysicalMemory, WritesMarkTheirLinesAndClaimsHandThemOver) {
  PhysicalMemory pm(16 * kPageSize);
  const Hpa f = pm.alloc_frame();
  int a = 0, b = 0;  // two copies' identities
  EXPECT_EQ(pm.claim(f, &a).bytes, nullptr) << "a frame without contents claims nothing";
  pm.write_u64(f + 3 * 64, 7);
  const PhysicalMemory::Claim first = pm.claim(f, &a);
  EXPECT_EQ(first.bytes, pm.frame_data_if_present(f));
  EXPECT_EQ(first.lines, PhysicalMemory::kAllLines) << "first claim";
  EXPECT_EQ(pm.claim(f, &a).lines, 0u) << "nothing written since";
  pm.write_u64(f + 8, 1);
  EXPECT_EQ(pm.claim(f, &a).lines, 0b1u);
  pm.write_u64(f + 60, 1);  // straddles lines 0 and 1
  EXPECT_EQ(pm.claim(f, &a).lines, 0b11u);
  std::vector<u8> run(200, 9);
  pm.write(f + 100, run);  // bytes 100..299: lines 1..4
  pm.write_u64(f + kPageSize - 8, 1);
  EXPECT_EQ(pm.claim(f, &a).lines, 0b11110u | (u64{1} << 63));
  pm.zero(f);
  EXPECT_EQ(pm.claim(f, &a).lines, PhysicalMemory::kAllLines) << "zero covers every line";
  pm.write_u64(f, 1);
  EXPECT_EQ(pm.claim(f, &b).lines, PhysicalMemory::kAllLines) << "another copy";
  EXPECT_EQ(pm.claim(f, &a).lines, PhysicalMemory::kAllLines) << "b claimed it since";
  pm.free_frame(f);
  ASSERT_EQ(pm.alloc_frame(), f);
  pm.write_u64(f, 2);
  EXPECT_EQ(pm.claim(f, &a).lines, PhysicalMemory::kAllLines) << "a recycled frame";
  pm.debug_forget_lines(f + 8);
  pm.write_u64(f, 3);
  pm.debug_forget_lines(f);
  EXPECT_EQ(pm.claim(f, &a).lines, 0u) << "the corruption IMG-1 catches";
}

// A partition's contents block goes back to this thread's pool when the
// partition dies, and the next partition on the thread gets it back with the
// old bytes in it: every frame it materialises must still read zero, and an
// unmaterialised frame has no contents to show.
TEST(PhysicalMemory, FramesOfARecycledBlockMaterialiseZeroed) {
  constexpr u64 kFrames = 64;
  std::uintptr_t old_bytes = 0;
  {
    PhysicalMemory first(1, kFrames);
    for (u64 i = 0; i < kFrames; ++i) first.write(first.alloc_frame(), std::vector<u8>(kPageSize, 0xA5));
    old_bytes = reinterpret_cast<std::uintptr_t>(first.frame_data_if_present(u64{1} << kPageShift));
  }
  PhysicalMemory second(1, kFrames);
  for (u64 i = 0; i < kFrames; ++i) {
    const Hpa f = second.alloc_frame();
    EXPECT_EQ(second.frame_data_if_present(f), nullptr) << "frame " << i << " before materialise";
    if (i % 2 == 0) {
      second.zero(f);
    } else {
      second.write_u64(f + 8, 0);
    }
    const u8* bytes = second.frame_data_if_present(f);
    ASSERT_NE(bytes, nullptr);
    EXPECT_TRUE(std::all_of(bytes, bytes + kPageSize, [](u8 b) { return b == 0; }))
        << "frame " << i << " shows its last owner's bytes";
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second.frame_data_if_present(u64{1} << kPageShift)),
            old_bytes)
      << "the second partition did not get the recycled block";
}

// A thread keeps at most its own high-water mark of live blocks: a thread
// that took none keeps no spare when it releases one, and a thread that
// held two keeps two however many it releases.
TEST(HostBlockPool, SparesAreBoundedByTheThreadsOwnHighWaterMark) {
  base::HostBlock a, b, c;
  std::thread([&] { a = base::HostBlock::take(); }).join();
  std::size_t spares = 1;
  std::thread([&] {
    a = base::HostBlock{};
    spares = base::HostBlock::spares();
  }).join();
  EXPECT_EQ(spares, 0u) << "a thread that never took a block kept one";

  std::thread([&] { c = base::HostBlock::take(); }).join();
  std::thread([&] {
    a = base::HostBlock::take();
    b = base::HostBlock::take();
    a = base::HostBlock{};
    b = base::HostBlock{};
    EXPECT_EQ(base::HostBlock::spares(), 2u);
    c = base::HostBlock{};  // a third, taken elsewhere
    spares = base::HostBlock::spares();
    a = base::HostBlock::take();  // recycled: no new mapping
    EXPECT_EQ(base::HostBlock::spares(), 1u);
    a = base::HostBlock{};
  }).join();
  EXPECT_EQ(spares, 2u) << "the releasing thread kept more than it ever held";
}

#if defined(OOH_ASAN)
// Under AddressSanitizer a contents block is poisoned except for the frames
// materialised in it, so a stray access past one frame into its neighbour
// is reported, as it was when each frame was its own heap chunk.
TEST(PhysicalMemory, UnmaterialisedFramesArePoisoned) {
  PhysicalMemory pm(1, 8);
  const Hpa f = pm.alloc_frame();
  const Hpa next = pm.alloc_frame();
  ASSERT_EQ(next, f + kPageSize);
  pm.write_u64(f, 1);
  const u8* bytes = pm.frame_data_if_present(f);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(__asan_region_is_poisoned(const_cast<u8*>(bytes), kPageSize), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(bytes + kPageSize)) << "the next frame is not materialised";
  pm.zero(next);
  EXPECT_FALSE(__asan_address_is_poisoned(bytes + kPageSize));
  pm.free_frame(f);
  EXPECT_TRUE(__asan_address_is_poisoned(bytes)) << "a freed frame is poisoned again";
}
#endif

TEST(PhysicalMemory, FreeOutsideThePartitionThrows) {
  PhysicalMemory a(1, 8);  // frames 1..8
  PhysicalMemory b(9, 8);  // frames 9..16
  const Hpa mine = b.alloc_frame();
  const Hpa theirs = a.alloc_frame();
  EXPECT_THROW(b.free_frame(theirs), std::logic_error);
  EXPECT_THROW(b.free_frame(u64{17} << kPageShift), std::logic_error) << "past the window";
  EXPECT_THROW(b.free_frame(u64{10} << kPageShift), std::logic_error)
      << "inside the window but never handed out";
  EXPECT_EQ(b.used_frames(), 1u);
  EXPECT_EQ(a.used_frames(), 1u);
  // A rejected free leaves the free list clean: the next frame is fresh.
  EXPECT_EQ(b.alloc_frame(), u64{10} << kPageShift);
  b.free_frame(mine);
  EXPECT_EQ(b.alloc_frame(), mine);
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

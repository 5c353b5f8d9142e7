// Swap daemon tests: the guest kernel's own dirty-tracking use (paper §I).
// Clean victims evict for free; dirty victims pay a writeback; contents
// round-trip through swap; the clock algorithm gives touched pages a second
// chance; swapped pages interact correctly with the OoH trackers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "guest/ooh_module.hpp"
#include "guest/procfs.hpp"
#include "guest/swap.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"

namespace ooh::guest {
namespace {

class SwapTest : public ::testing::Test {
 protected:
  SwapTest() : bed_(), kernel_(bed_.kernel()), proc_(kernel_.create_process()) {}

  /// Map + touch `n` pages, then clear A and D bits so all are cold+clean.
  Gva make_cold_clean(u64 n, bool data_backed = false) {
    const Gva base = proc_.mmap(n * kPageSize, data_backed);
    for (u64 i = 0; i < n; ++i) proc_.touch_write(base + i * kPageSize);
    kernel_.page_table(proc_).for_each_present([](Gva, sim::Pte& pte) {
      pte.accessed = false;
      pte.dirty = false;
    });
    bed_.vm().vcpu().tlb().flush_pid(proc_.pid());
    return base;
  }

  lib::TestBed bed_;
  GuestKernel& kernel_;
  Process& proc_;
};

TEST_F(SwapTest, CleanPagesEvictWithoutWriteback) {
  (void)make_cold_clean(16);
  const u64 writes_before = bed_.ctx().counters.get(Event::kDiskPageWrite);
  const SwapDaemon::EvictStats st = kernel_.swap().evict(proc_, 8);
  EXPECT_EQ(st.evicted_clean, 8u);
  EXPECT_EQ(st.evicted_dirty, 0u);
  EXPECT_EQ(bed_.ctx().counters.get(Event::kDiskPageWrite), writes_before)
      << "clean evictions must not touch the disk";
  EXPECT_EQ(kernel_.swap().swapped_out(proc_), 8u);
  EXPECT_EQ(kernel_.page_table(proc_).present_pages(), 8u);
}

TEST_F(SwapTest, DirtyPagesPayWriteback) {
  const Gva base = make_cold_clean(16);
  // Re-dirty 4 pages (and re-clear their accessed bits so they are victims).
  for (int i = 0; i < 4; ++i) proc_.touch_write(base + i * kPageSize);
  kernel_.page_table(proc_).for_each_present(
      [](Gva, sim::Pte& pte) { pte.accessed = false; });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());

  const u64 writes_before = bed_.ctx().counters.get(Event::kDiskPageWrite);
  const SwapDaemon::EvictStats st = kernel_.swap().evict(proc_, 16);
  EXPECT_EQ(st.evicted_dirty, 4u);
  EXPECT_EQ(st.evicted_clean, 12u);
  EXPECT_EQ(bed_.ctx().counters.get(Event::kDiskPageWrite), writes_before + 4)
      << "only the dirty victims were written back";
}

TEST_F(SwapTest, SecondChanceSparesRecentlyTouchedPages) {
  const Gva base = make_cold_clean(8);
  // Touch half: their accessed bits are set again.
  for (int i = 0; i < 4; ++i) proc_.touch_read(base + i * kPageSize);
  const SwapDaemon::EvictStats st = kernel_.swap().evict(proc_, 4);
  EXPECT_EQ(st.evicted_clean + st.evicted_dirty, 4u);
  // The cold half got evicted first.
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(kernel_.page_table(proc_).pte(base + i * kPageSize)->present, false)
        << "cold page " << i << " should be out";
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(kernel_.page_table(proc_).pte(base + i * kPageSize)->present)
        << "recently-touched page " << i << " got evicted despite its second chance";
  }
}

TEST_F(SwapTest, SwapInRestoresContentExactly) {
  const Gva base = proc_.mmap(4 * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < 4; ++i) proc_.write_u64(base + i * kPageSize + 24, 0xAB00 + i);
  kernel_.page_table(proc_).for_each_present(
      [](Gva, sim::Pte& pte) { pte.accessed = false; });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());

  ASSERT_EQ(kernel_.swap().evict(proc_, 4).evicted_dirty, 4u);
  EXPECT_EQ(kernel_.page_table(proc_).present_pages(), 0u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(proc_.read_u64(base + i * kPageSize + 24), 0xAB00 + i)
        << "swap-in must restore the page bytes";
  }
  EXPECT_EQ(kernel_.swap().swapped_out(proc_), 0u);
}

TEST_F(SwapTest, SwapPreservesSoftDirtyForProcTracking) {
  // A page dirtied since clear_refs stays reported dirty across swap-out/in.
  const Gva base = proc_.mmap(2 * kPageSize);
  proc_.touch_write(base);
  proc_.touch_write(base + kPageSize);
  kernel_.procfs().clear_refs(proc_);
  proc_.touch_write(base);  // sets soft-dirty again
  kernel_.page_table(proc_).for_each_present(
      [](Gva, sim::Pte& pte) { pte.accessed = false; });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());
  ASSERT_GE(kernel_.swap().evict(proc_, 2).scanned, 2u);

  proc_.touch_read(base);  // swap both pages back in
  proc_.touch_read(base + kPageSize);
  const std::vector<Gva> dirty = kernel_.procfs().pagemap_dirty(proc_);
  EXPECT_EQ(dirty, std::vector<Gva>{base})
      << "soft-dirty state must survive the swap cycle";
}

TEST_F(SwapTest, EpmlSeesRedirtyAfterSwapIn) {
  const Gva base = make_cold_clean(4);
  auto tracker = lib::make_tracker(lib::Technique::kEpml, kernel_, proc_);
  tracker->init();
  tracker->begin_interval();
  ASSERT_EQ(kernel_.swap().evict(proc_, 4).evicted_clean, 4u);

  kernel_.scheduler().enter_process(proc_.pid());
  proc_.touch_write(base + kPageSize);  // swap-in + write
  kernel_.scheduler().exit_process(proc_.pid());
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty, std::vector<Gva>{base + kPageSize});
  tracker->shutdown();
}

TEST_F(SwapTest, SwappedOutPagesInFlightBufferEntriesAreDroppedAtDrain) {
  // Bugfix regression: a GVA logged into the EPML guest buffer and then
  // swapped out before the drain used to be handed to userspace anyway — a
  // stale address that may already belong to a recycled mapping. The drain
  // must re-validate every entry against the page table and drop non-present
  // ones, visibly (kEpmlStaleEntryDropped).
  OohModule& mod = kernel_.load_ooh_module(OohMode::kEpml);
  const Gva base = proc_.mmap(6 * kPageSize);
  mod.track(proc_);
  kernel_.scheduler().enter_process(proc_.pid());
  for (u64 i = 0; i < 6; ++i) proc_.touch_write(base + i * kPageSize);

  // Evict the first four pages while their GVAs still sit in the in-flight
  // guest buffer. The last two keep their accessed bits (second chance), so
  // they survive the scan.
  kernel_.page_table(proc_).for_each_present([&](Gva gva, sim::Pte& pte) {
    if (gva < base + 4 * kPageSize) pte.accessed = false;
  });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());
  ASSERT_EQ(kernel_.swap().evict(proc_, 4).evicted_dirty, 4u);

  kernel_.scheduler().exit_process(proc_.pid());  // drains the guest buffer
  EXPECT_EQ(bed_.ctx().counters.get(Event::kEpmlStaleEntryDropped), 4u);
  std::vector<u64> got = mod.fetch(proc_);
  std::sort(got.begin(), got.end());
  const std::vector<u64> expect{base + 4 * kPageSize, base + 5 * kPageSize};
  EXPECT_EQ(got, expect) << "only the still-present pages reach userspace";
  mod.untrack(proc_);
}

TEST_F(SwapTest, MunmappedPagesInFlightBufferEntriesAreDroppedAtDrain) {
  // Same stale-entry discipline for munmap: tearing down the VMA between the
  // logged write and the drain must not leak the dead GVAs to userspace.
  OohModule& mod = kernel_.load_ooh_module(OohMode::kEpml);
  const Gva keep = proc_.mmap(2 * kPageSize);
  const Gva doomed = proc_.mmap(3 * kPageSize);
  mod.track(proc_);
  kernel_.scheduler().enter_process(proc_.pid());
  for (u64 i = 0; i < 2; ++i) proc_.touch_write(keep + i * kPageSize);
  for (u64 i = 0; i < 3; ++i) proc_.touch_write(doomed + i * kPageSize);
  proc_.munmap(doomed);  // buffer still holds the three dead GVAs
  kernel_.scheduler().exit_process(proc_.pid());

  EXPECT_EQ(bed_.ctx().counters.get(Event::kEpmlStaleEntryDropped), 3u);
  std::vector<u64> got = mod.fetch(proc_);
  std::sort(got.begin(), got.end());
  const std::vector<u64> expect{keep, keep + kPageSize};
  EXPECT_EQ(got, expect);
  mod.untrack(proc_);
}

TEST_F(SwapTest, EvictionRecyclesGuestFrames) {
  lib::TestBedOptions opts;
  opts.vm_mem_bytes = 32 * kPageSize;
  lib::TestBed bed(opts);
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  // More virtual memory than guest RAM: only possible with eviction.
  const Gva base = proc.mmap(64 * kPageSize);
  for (u64 i = 0; i < 64; ++i) {
    proc.touch_write(base + i * kPageSize);
    if (k.page_table(proc).present_pages() >= 24) {
      k.page_table(proc).for_each_present(
          [](Gva, sim::Pte& pte) { pte.accessed = false; });
      bed.vm().vcpu().tlb().flush_pid(proc.pid());
      (void)k.swap().evict(proc, 16);
    }
  }
  EXPECT_EQ(proc.truth_dirty().size() + k.swap().swapped_out(proc),
            64u + k.swap().swapped_out(proc));  // all 64 pages were written
  EXPECT_LE(k.page_table(proc).present_pages(), 24u);
}

TEST_F(SwapTest, RecycledFramesNeverLeakStaleBytes) {
  // Evict a data-backed page; its freed guest frame gets recycled by a new
  // mapping, which must read as zeros, not the evicted page's content.
  const Gva secret = proc_.mmap(kPageSize, /*data_backed=*/true);
  proc_.write_u64(secret, 0x5EC2E7ull);
  kernel_.page_table(proc_).for_each_present(
      [](Gva, sim::Pte& pte) { pte.accessed = false; });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());
  ASSERT_GE(kernel_.swap().evict(proc_, 1).scanned, 1u);

  const Gva fresh = proc_.mmap(kPageSize, /*data_backed=*/true);
  EXPECT_EQ(proc_.read_u64(fresh), 0u) << "recycled frame leaked stale bytes";
  // And the evicted page still swaps back in with its content.
  EXPECT_EQ(proc_.read_u64(secret), 0x5EC2E7ull);
}

// A demand fault zeroes a recycled frame that still holds the evicted
// page's bytes, and materialises a never-written one: CRIU's dump tells
// data pages from never-written ones by whether the frame exists.
TEST_F(SwapTest, DemandFaultZeroesRecycledFrameAndMaterialisesFresh) {
  const Gva secret = proc_.mmap(kPageSize, /*data_backed=*/true);
  for (u64 off = 0; off < kPageSize; off += 8) proc_.write_u64(secret + off, 0xA5A5'0000 + off);
  const Gpa old_gpa = kernel_.page_table(proc_).pte(secret)->gpa_page;
  kernel_.page_table(proc_).for_each_present(
      [](Gva, sim::Pte& pte) { pte.accessed = false; });
  bed_.vm().vcpu().tlb().flush_pid(proc_.pid());
  ASSERT_GE(kernel_.swap().evict(proc_, 1).scanned, 1u);

  const auto frame_of = [&](Gva gva) {
    Hpa hpa = 0;
    EXPECT_TRUE(bed_.vm().ept().translate(kernel_.page_table(proc_).pte(gva)->gpa_page, hpa));
    return bed_.kernel().ctx().pmem.frame_data_if_present(page_floor(hpa));
  };
  const Gva fresh = proc_.mmap(kPageSize, /*data_backed=*/true);
  proc_.touch_read(fresh);
  ASSERT_EQ(kernel_.page_table(proc_).pte(fresh)->gpa_page, old_gpa)
      << "the fault did not recycle the evicted page's guest frame";
  const u8* bytes = frame_of(fresh);
  ASSERT_NE(bytes, nullptr);
  EXPECT_TRUE(std::all_of(bytes, bytes + kPageSize, [](u8 b) { return b == 0; }));

  // A guest frame never used before: materialised, and zero.
  const Gva other = proc_.mmap(kPageSize, /*data_backed=*/true);
  proc_.touch_read(other);
  const u8* blank = frame_of(other);
  ASSERT_NE(blank, nullptr);
  EXPECT_TRUE(std::all_of(blank, blank + kPageSize, [](u8 b) { return b == 0; }));
}

// Under the segment backend one Pte covers a run and its gpa_page is the
// run's first page. A second-chance sweep picks a victim inside the run:
// eviction must save and free that page's own frame, and swap-in must fill
// the page's new frame even when the page rejoins the preceding run.
TEST_F(SwapTest, SegmentBackedPagesSwapTheirOwnBytes) {
  constexpr u64 kPages = 8;
  const Gva base = proc_.mmap(kPages * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < kPages; ++i) proc_.write_u64(base + i * kPageSize + 24, 0xC000 + i);
  auto seg = lib::make_tracker(lib::Technique::kSeg, kernel_, proc_);
  seg->init();
  seg->shutdown();
  sim::GuestPageTable& pt = kernel_.page_table(proc_);
  ASSERT_EQ(pt.backend(), sim::TranslationBackend::kSegment);
  ASSERT_EQ(pt.segment_table()->segment_count(), 1u);

  // The run's shared accessed bit spares page 0; page 1 is the victim.
  ASSERT_TRUE(pt.pte(base)->accessed);
  ASSERT_EQ(kernel_.swap().evict(proc_, 1).evicted_dirty, 1u);
  ASSERT_EQ(pt.lookup(base + kPageSize).pte, nullptr) << "page 1 was not the victim";
  for (u64 i = 0; i < kPages; ++i) {
    EXPECT_EQ(proc_.read_u64(base + i * kPageSize + 24), 0xC000 + i) << "page " << i;
  }
}

TEST_F(SwapTest, EvictNothingOnEmptyProcess) {
  const SwapDaemon::EvictStats st = kernel_.swap().evict(proc_, 10);
  EXPECT_EQ(st.scanned, 0u);
  EXPECT_EQ(kernel_.swap().swapped_out(proc_), 0u);
}

}  // namespace
}  // namespace ooh::guest

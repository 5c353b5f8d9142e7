// CRIU tests: checkpoint/restore round-trips byte-for-byte, incremental
// image freshness depends on tracker completeness (and holds for every
// technique), and the phase shapes match §VI-F (/proc fuses MD into MW;
// SPML's MD dominated by reverse mapping; EPML MW is pure page writing).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/host_block.hpp"
#include "base/rng.hpp"
#include "guest/swap.hpp"
#include "ooh/testbed.hpp"
#include "sim/check/invariant.hpp"
#include "sim/page_table.hpp"
#include "sim/phys_mem.hpp"
#include "trackers/criu/checkpoint.hpp"

namespace ooh::criu {
namespace {

using lib::Technique;

constexpr Technique kAll[] = {Technique::kProc, Technique::kUfd, Technique::kSpml,
                              Technique::kEpml, Technique::kWp, Technique::kOracle};

std::string tech_label(Technique t) {
  switch (t) {
    case Technique::kProc: return "proc";
    case Technique::kUfd: return "ufd";
    case Technique::kSpml: return "spml";
    case Technique::kEpml: return "epml";
    case Technique::kWp: return "wp";
    case Technique::kOracle: return "oracle";
    case Technique::kSeg: return "seg";
    case Technique::kAdaptive: return "adaptive";
  }
  return "?";
}

/// A workload that writes a derministic pattern the restore test can verify.
lib::WorkloadFn pattern_writer(Gva base, u64 pages, u64 seed) {
  return [=](guest::Process& p) {
    Rng rng(seed);
    for (u64 i = 0; i < pages; ++i) {
      p.write_u64(base + i * kPageSize + (i % 100) * 8, rng.next());
    }
    // Rewrite a subset so the image must refresh stale full-copy pages.
    for (u64 i = 0; i < pages; i += 3) {
      p.write_u64(base + i * kPageSize, rng.next());
    }
  };
}

std::vector<u8> read_page(guest::Process& p, Gva page) {
  std::vector<u8> buf(kPageSize);
  p.read_bytes(page, buf);
  return buf;
}

std::vector<u8> image_page(const CheckpointImage& image, Gva page) {
  const std::span<const u8> bytes = image.pages.at(page);
  return {bytes.begin(), bytes.end()};
}

class CriuRoundTrip : public ::testing::TestWithParam<Technique> {};

TEST_P(CriuRoundTrip, RestoredMemoryEqualsOriginal) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  // Warm with initial content so the full copy has something to be stale about.
  for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize, i);

  Checkpointer cp(k, GetParam());
  const CheckpointResult res =
      cp.checkpoint_during(proc, pattern_writer(base, pages, 77));

  guest::Process& restored = k.create_process();
  restore(restored, res.image);

  for (u64 i = 0; i < pages; ++i) {
    const Gva page = base + i * kPageSize;
    EXPECT_EQ(read_page(proc, page), read_page(restored, page))
        << tech_label(GetParam()) << ": page " << i
        << " stale in image (tracker missed the re-write)";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, CriuRoundTrip, ::testing::ValuesIn(kAll),
                         [](const auto& pinfo) { return tech_label(pinfo.param); });

class CriuPrecopy : public ::testing::TestWithParam<Technique> {};

TEST_P(CriuPrecopy, IncrementalRoundsStillYieldCorrectImage) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 128;
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize, i);

  Checkpointer cp(k, GetParam());
  CheckpointOptions opts;
  opts.precopy_period = usecs(200);
  const CheckpointResult res =
      cp.checkpoint_during(proc, pattern_writer(base, pages, 99), opts);
  EXPECT_GT(res.phases.precopy.count(), 0.0);

  guest::Process& restored = k.create_process();
  restore(restored, res.image);
  for (u64 i = 0; i < pages; ++i) {
    const Gva page = base + i * kPageSize;
    EXPECT_EQ(read_page(proc, page), read_page(restored, page));
  }
  EXPECT_GT(res.image.dump_ops, res.image.pages.size())
      << "pre-copy rounds must have re-dumped some pages";
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, CriuPrecopy,
                         ::testing::Values(Technique::kProc, Technique::kEpml,
                                           Technique::kSpml),
                         [](const auto& pinfo) { return tech_label(pinfo.param); });

TEST(Criu, FullCheckpointCapturesAllPresentPages) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(16 * kPageSize, true);
  for (u64 i = 0; i < 16; i += 2) proc.write_u64(base + i * kPageSize, i);

  Checkpointer cp(k, Technique::kOracle);
  const CheckpointImage image = cp.full_checkpoint(proc);
  EXPECT_EQ(image.pages.size(), 8u) << "only touched pages are present";
  guest::Process& restored = k.create_process();
  restore(restored, image);
  for (u64 i = 0; i < 16; i += 2) {
    EXPECT_EQ(restored.read_u64(base + i * kPageSize), i);
  }
}

// restore() writes pages in ascending GVA order, so the same image contents
// restore to the same virtual time and counters however the image was
// dumped -- and so whatever order its hash map iterates in.
TEST(Criu, RestoreIsIndependentOfDumpOrder) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  constexpr u64 kDataPages = 1024, kMetaPages = 64;
  const Gva data = proc.mmap(kDataPages * kPageSize, /*data_backed=*/true);
  const Gva meta = proc.mmap(kMetaPages * kPageSize, /*data_backed=*/false);
  Rng rng(21);
  std::vector<Gva> order;
  for (u64 i = 0; i < kDataPages; ++i) {
    const Gva page = data + i * kPageSize;
    proc.write_u64(page + rng.below(kPageSize / 8) * 8, rng.next());
    order.push_back(page);
  }
  for (u64 i = 0; i < kMetaPages; i += 2) {
    proc.touch_write(meta + i * kPageSize);
    order.push_back(meta + i * kPageSize);
  }

  Checkpointer cp(k, Technique::kOracle);
  CheckpointImage ascending, shuffled;
  for (const guest::Vma& vma : proc.vmas()) {
    ascending.vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }
  shuffled.vmas = ascending.vmas;
  cp.dump_pages(proc, order, ascending);
  for (u64 i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  cp.dump_pages(proc, order, shuffled);
  ASSERT_EQ(ascending.pages, shuffled.pages);

  struct Restored {
    double clock;
    EventCounters counters;
  };
  const auto restore_fresh = [](const CheckpointImage& image) {
    lib::TestBed fresh;
    guest::Process& p = fresh.kernel().create_process();
    restore(p, image);
    return Restored{fresh.kernel().ctx().clock.now().count(), fresh.kernel().ctx().counters};
  };
  const Restored a = restore_fresh(ascending);
  const Restored b = restore_fresh(shuffled);
  EXPECT_EQ(std::bit_cast<u64>(a.clock), std::bit_cast<u64>(b.clock));
  EXPECT_TRUE(a.counters == b.counters);
}

TEST(Criu, RestoreRequiresFreshProcess) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  (void)proc.mmap(kPageSize);
  CheckpointImage image;
  EXPECT_THROW(restore(proc, image), std::invalid_argument);
}

TEST(Criu, ProcFusesMdIntoMw) {
  // §VI-F: with /proc, CRIU dumps pages as the pagemap walk finds them, so
  // MD is empty and MW carries the scan; with EPML, MD is the cheap ring
  // read and MW is pure page writing.
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 256;
  const Gva base = proc.mmap(pages * kPageSize);

  Checkpointer cp(k, Technique::kProc);
  const CheckpointResult res = cp.checkpoint_during(proc, pattern_writer(base, pages, 5));
  EXPECT_EQ(res.phases.md.count(), 0.0);
  EXPECT_GT(res.phases.mw.count(),
            bed.machine().cost.pagemap_scan_us(proc.mapped_bytes()))
      << "/proc MW must include the pagemap walk";
}

TEST(Criu, SpmlMdDominatedByReverseMapping) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 2560;  // 10 MiB
  const Gva base = proc.mmap(pages * kPageSize);

  Checkpointer cp(k, Technique::kSpml);
  const CheckpointResult res = cp.checkpoint_during(proc, pattern_writer(base, pages, 5));
  EXPECT_GT(res.phases.md.count(), res.phases.mw.count())
      << "SPML checkpoint time is dominated by MD (reverse mapping), Fig. 8";
}

TEST(Criu, EpmlMwIsPurePageWriting) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 256;
  const Gva base = proc.mmap(pages * kPageSize);

  Checkpointer cp(k, Technique::kEpml);
  const CheckpointResult res = cp.checkpoint_during(proc, pattern_writer(base, pages, 5));
  const double expected_mw =
      bed.machine().cost.disk_write_page_us * static_cast<double>(res.final_dirty_pages);
  EXPECT_NEAR(res.phases.mw.count(), expected_mw, expected_mw * 0.1);
  EXPECT_LT(res.phases.md.count(), res.phases.mw.count());
}

TEST(Criu, MwShapeMatchesFig7AcrossTechniques) {
  // Fig. 7: with a fixed dirty set, MW grows with *memory size* for /proc
  // (the fused pagemap walk scans everything) but stays ~constant for EPML
  // (pure page writes of the dirty set).
  const u64 dirty = 256;
  auto mw_time = [&](Technique t, u64 total_pages) {
    lib::TestBed bed;
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    const Gva base = proc.mmap(total_pages * kPageSize);
    for (u64 i = 0; i < total_pages; ++i) proc.touch_write(base + i * kPageSize);
    Checkpointer cp(k, t);
    CheckpointOptions opts;
    opts.initial_full_copy = false;  // isolate the dirty-page MW
    const auto writer = [&](guest::Process& p) {
      for (u64 i = 0; i < dirty; ++i) p.touch_write(base + i * kPageSize);
    };
    return cp.checkpoint_during(proc, writer, opts).phases.mw.count();
  };
  const u64 small = 1024, large = 16384;  // 4 MiB vs 64 MiB
  const double proc_small = mw_time(Technique::kProc, small);
  const double proc_large = mw_time(Technique::kProc, large);
  const double epml_small = mw_time(Technique::kEpml, small);
  const double epml_large = mw_time(Technique::kEpml, large);
  EXPECT_GT(proc_large, epml_large * 2) << "EPML improves MW vs /proc";
  EXPECT_GT(proc_large / proc_small, 4.0) << "/proc MW grows with memory";
  EXPECT_LT(epml_large / epml_small, 1.5) << "EPML MW ~constant (Fig. 7)";
}

TEST(Criu, MetadataOnlyVmasDumpEmptyPages) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(4 * kPageSize, /*data_backed=*/false);
  for (int i = 0; i < 4; ++i) proc.touch_write(base + i * kPageSize);
  Checkpointer cp(k, Technique::kOracle);
  const CheckpointImage image = cp.full_checkpoint(proc);
  EXPECT_EQ(image.pages.size(), 4u);
  for (const auto& [gva, content] : image.pages) EXPECT_TRUE(content.empty());
  guest::Process& restored = k.create_process();
  restore(restored, image);  // must not throw
  EXPECT_EQ(k.page_table(restored).present_pages(), 4u);
}

TEST(Criu, RedumpOverwritesImagePagesInPlace) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 data_pages = 8;
  const u64 meta_pages = 4;
  const Gva data = proc.mmap(data_pages * kPageSize, /*data_backed=*/true);
  const Gva meta = proc.mmap(meta_pages * kPageSize, /*data_backed=*/false);
  for (u64 i = 0; i < data_pages; ++i) proc.write_u64(data + i * kPageSize + 8 * i, i + 1);
  for (u64 i = 0; i < meta_pages; ++i) proc.touch_write(meta + i * kPageSize);

  Checkpointer cp(k, Technique::kOracle);
  CheckpointImage image = cp.full_checkpoint(proc);
  ASSERT_EQ(image.pages.size(), data_pages + meta_pages);
  EXPECT_EQ(image.dump_ops, data_pages + meta_pages);
  const u8* buffer = image.pages.at(data).data();

  // Rewrite two data pages, then re-dump them with a metadata-only page.
  proc.write_u64(data, 0xABCD);
  proc.write_u64(data + 3 * kPageSize + 64, 0x1234);
  cp.dump_pages(proc, {data, data + 3 * kPageSize, meta}, image);
  EXPECT_EQ(image.dump_ops, data_pages + meta_pages + 3) << "every write counts";
  EXPECT_EQ(image.pages.size(), data_pages + meta_pages);
  EXPECT_EQ(image_page(image, data), read_page(proc, data));
  EXPECT_EQ(image.pages.at(data).data(), buffer) << "re-dump reuses the slot's buffer";
  EXPECT_EQ(image_page(image, data + 3 * kPageSize), read_page(proc, data + 3 * kPageSize));
  for (u64 i = 0; i < meta_pages; ++i) {
    EXPECT_TRUE(image.pages.at(meta + i * kPageSize).empty());
  }

  guest::Process& restored = k.create_process();
  restore(restored, image);
  for (u64 i = 0; i < data_pages; ++i) {
    const Gva page = data + i * kPageSize;
    EXPECT_EQ(read_page(proc, page), read_page(restored, page)) << "page " << i;
  }
  EXPECT_EQ(k.page_table(restored).present_pages(), data_pages + meta_pages);
}

// The run maps and fills a data VMA the pre-run layout never saw: the image
// must record the layout as of the final dump, or restore faults on it.
TEST(Criu, CheckpointDuringRecordsVmasMappedByTheRun) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 16;
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize, i);

  Gva fresh = 0;
  const auto workload = [&](guest::Process& p) {
    pattern_writer(base, pages, 3)(p);
    fresh = p.mmap(pages * kPageSize, /*data_backed=*/true);
    pattern_writer(fresh, pages, 4)(p);
  };
  Checkpointer cp(k, Technique::kEpml);
  const CheckpointResult res = cp.checkpoint_during(proc, workload);
  ASSERT_EQ(res.image.vmas.size(), 2u);

  guest::Process& restored = k.create_process();
  restore(restored, res.image);
  for (const Gva vma : {base, fresh}) {
    for (u64 i = 0; i < pages; ++i) {
      const Gva page = vma + i * kPageSize;
      EXPECT_EQ(read_page(proc, page), read_page(restored, page)) << "page " << i;
    }
  }
}

// A step whose slice unmaps a VMA below others leaves a hole in the layout:
// restore must map each VMA at its recorded start, and the image must drop
// the dead VMA's pages.
TEST(CriuIncremental, RestoresAfterTheProcessUnmapsAVma) {
  for (const Technique tech : {Technique::kProc, Technique::kSpml, Technique::kEpml}) {
    lib::TestBed bed;
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    const u64 pages = 8;
    std::array<Gva, 3> vmas{};
    for (Gva& v : vmas) {
      v = proc.mmap(pages * kPageSize, /*data_backed=*/true);
      for (u64 i = 0; i < pages; ++i) proc.write_u64(v + i * kPageSize, v + i);
    }
    IncrementalSession session(k, tech, proc);
    ASSERT_TRUE(session.image().pages.contains(vmas[1]));
    (void)session.step([&](guest::Process& p) {
      p.munmap(vmas[1]);
      pattern_writer(vmas[2], pages, 8)(p);
    });
    const CheckpointImage& image = session.image();
    EXPECT_EQ(image.vmas.size(), 2u) << tech_label(tech);
    EXPECT_FALSE(image.pages.contains(vmas[1])) << tech_label(tech);
    EXPECT_EQ(image.pages.size(), 2 * pages) << tech_label(tech);

    guest::Process& restored = k.create_process();
    restore(restored, image);
    for (const Gva v : {vmas[0], vmas[2]}) {
      for (u64 i = 0; i < pages; ++i) {
        const Gva page = v + i * kPageSize;
        EXPECT_EQ(read_page(proc, page), read_page(restored, page)) << tech_label(tech);
      }
    }
    EXPECT_EQ(restored.vma_of(vmas[1]), nullptr);
  }
}

// ---- pages that share one leaf -------------------------------------------------

// kAll leaves out seg (a superset tracker): its page table is segment-backed,
// and a segment's one Pte carries the GPA of its run's first page. Each
// dumped page must still read its own frame.
TEST(CriuIncremental, SegmentBackedStepDumpsEachPagesOwnBytes) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 16;
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize, i + 1);

  IncrementalSession session(k, Technique::kSeg, proc);
  ASSERT_EQ(k.page_table(proc).backend(), sim::TranslationBackend::kSegment);
  ASSERT_LT(k.page_table(proc).segment_table()->segment_count(), pages)
      << "the pages must share segments for this test to mean anything";
  (void)session.step([&](guest::Process& p) {
    for (u64 i = 0; i < pages; ++i) p.write_u64(base + i * kPageSize + 8, 0xC0DE + i);
  });

  guest::Process& restored = k.create_process();
  restore(restored, session.image());
  u64 wrong_image = 0;
  u64 wrong_restore = 0;
  for (u64 i = 0; i < pages; ++i) {
    const Gva page = base + i * kPageSize;
    if (image_page(session.image(), page) != read_page(proc, page)) ++wrong_image;
    if (read_page(restored, page) != read_page(proc, page)) ++wrong_restore;
  }
  EXPECT_EQ(wrong_image, 0u) << "image pages that hold another page's bytes";
  EXPECT_EQ(wrong_restore, 0u) << "restored pages that differ from the live ones";
}

// A guest 2 MiB leaf is one Pte for 512 pages, whose gpa_page is the
// region's base.
TEST(Criu, FullCheckpointReadsEachPageOfAGuestHugeLeaf) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = kGiB;    // 2 MiB-aligned, clear of the mmap area
  const Gpa gpa = 4 * kGiB;  // far above the kernel's bump-allocated frames
  const u64 pages = gran_pages(PageGran::k2M);
  proc.mmap_fixed(base, gran_size(PageGran::k2M), /*data_backed=*/true);
  k.page_table(proc).map_huge(base, gpa, PageGran::k2M, /*writable=*/true);
  for (u64 i = 0; i < pages; ++i) k.ensure_ept_mapped(gpa + i * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize + 8 * (i % 64), i + 1);

  Checkpointer cp(k, Technique::kOracle);
  const CheckpointImage image = cp.full_checkpoint(proc);
  ASSERT_EQ(image.pages.size(), pages);
  u64 wrong = 0;
  for (u64 i = 0; i < pages; ++i) {
    const Gva page = base + i * kPageSize;
    if (image_page(image, page) != read_page(proc, page)) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << "image pages that hold another page's bytes";
}

// dump_pages streams each page into its slot: the image must equal the live
// bytes of every page it dumped, whatever the order of the list.
TEST(Criu, DumpPagesImageEqualsLiveBytes) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  Rng rng(31);
  for (u64 i = 0; i < pages; ++i) {
    for (u64 off = 0; off < kPageSize; off += 512) proc.write_u64(base + i * kPageSize + off, rng.next());
  }
  std::vector<Gva> scattered;
  for (u64 i = 0; i < pages; i += 3) scattered.push_back(base + ((i * 37) % pages) * kPageSize);

  Checkpointer cp(k, Technique::kOracle);
  CheckpointImage image;
  image.record_layout(proc);
  cp.dump_pages(proc, scattered, image);
  EXPECT_EQ(image.dump_ops, scattered.size());
  for (const Gva page : scattered) {
    EXPECT_EQ(image_page(image, page), read_page(proc, page)) << "page " << (page - base) / kPageSize;
  }
}

// ---- the image's page store ----------------------------------------------------

guest::Vma make_vma(Gva start, u64 pages, bool data_backed) {
  guest::Vma vma;
  vma.start = start;
  vma.end = start + pages * kPageSize;
  vma.data_backed = data_backed;
  return vma;
}

/// A small host partition that hands PageStore tests frames of known bytes.
struct Frames {
  sim::PhysicalMemory pm{64 * kPageSize};
  /// A fresh frame, every byte `value`.
  Hpa filled(u8 value) {
    const Hpa f = pm.alloc_frame();
    pm.write(f, std::vector<u8>(kPageSize, value));
    return f;
  }
  [[nodiscard]] std::span<const u8> bytes(Hpa f) const {
    return {pm.frame_data_if_present(f), kPageSize};
  }
};

TEST(CriuPageStore, IteratesInAscendingGvaOrder) {
  const guest::Vma low = make_vma(0x1000'0000, 32, true);
  const guest::Vma high = make_vma(0x2000'0000, 32, false);
  std::vector<Gva> dumped;
  for (u64 i = 0; i < 32; i += 3) {
    dumped.push_back(low.start + i * kPageSize);
    dumped.push_back(high.start + i * kPageSize);
  }
  std::vector<Gva> order = dumped;
  Rng rng(5);
  for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  PageStore store;
  Frames frames;
  const Hpa page = frames.filled(7);
  for (const Gva gva : order) {
    if (gva < high.start) {
      (void)store.store(low, gva, frames.pm, page);
    } else {
      store.store_zero(high, gva);
    }
  }
  std::vector<Gva> seen;
  for (const auto& [gva, bytes] : store) seen.push_back(gva);
  std::sort(dumped.begin(), dumped.end());
  EXPECT_EQ(seen, dumped);
}

TEST(CriuPageStore, FindOnAbsentPageReturnsEnd) {
  const guest::Vma vma = make_vma(0x1000'0000, 8, true);
  PageStore store;
  EXPECT_EQ(store.find(vma.start), store.end());
  Frames frames;
  (void)store.store(vma, vma.start + 2 * kPageSize, frames.pm, frames.filled(1));
  EXPECT_EQ(store.find(vma.start), store.end()) << "absent page inside a region";
  EXPECT_EQ(store.find(vma.end), store.end()) << "page past every region";
  EXPECT_EQ(store.find(vma.start - kPageSize), store.end()) << "page below every region";
  EXPECT_FALSE(store.contains(vma.start + 3 * kPageSize));
  EXPECT_THROW((void)store.at(vma.start), std::out_of_range);
  const auto it = store.find(vma.start + 2 * kPageSize);
  ASSERT_NE(it, store.end());
  EXPECT_EQ(it->first, vma.start + 2 * kPageSize);
  EXPECT_EQ(it->second.size(), kPageSize);
}

TEST(CriuPageStore, MetadataOnlyPagesReadAsEmptySpans) {
  const guest::Vma meta = make_vma(0x1000'0000, 4, false);
  const guest::Vma data = make_vma(0x2000'0000, 4, true);
  PageStore store;
  Frames frames;
  store.store_zero(meta, meta.start);
  // A data page whose frame has no contents.
  EXPECT_EQ(store.store(data, data.start, frames.pm, frames.pm.alloc_frame()), 0u);
  EXPECT_TRUE(store.at(meta.start).empty());
  EXPECT_TRUE(store.at(data.start).empty());
  EXPECT_EQ(store.find(meta.start)->second.size(), 0u);
}

TEST(CriuPageStore, RedumpKeepsTheSlotAddress) {
  const guest::Vma vma = make_vma(0x1000'0000, 16, true);
  PageStore store;
  Frames frames;
  const Hpa first = frames.filled(1), second = frames.filled(2);
  (void)store.store(vma, vma.start + 5 * kPageSize, frames.pm, first);
  const u8* slot = store.at(vma.start + 5 * kPageSize).data();
  for (u64 i = 0; i < 16; ++i) (void)store.store(vma, vma.start + i * kPageSize, frames.pm, first);
  (void)store.store(vma, vma.start + 5 * kPageSize, frames.pm, second);
  const std::span<const u8> got = store.at(vma.start + 5 * kPageSize);
  EXPECT_EQ(got.data(), slot);
  EXPECT_TRUE(std::ranges::equal(got, frames.bytes(second)));
}

// Slots are page-aligned whatever the alignment of the source (frame
// contents are page-aligned too, but the copy does not rely on it), so the
// streamed copy writes whole cache lines; the bytes match the frame, also
// after a re-dump into the same slot.
TEST(CriuPageStore, DataSlotsArePageAlignedAndMatchUnalignedSources) {
  const guest::Vma vma = make_vma(0x1000'0000, 8, true);
  PageStore store;
  Frames frames;
  std::vector<Hpa> sources;
  for (std::size_t k = 0; k < 3; ++k) sources.push_back(frames.pm.alloc_frame());
  std::vector<u8> pattern(kPageSize);
  for (const u8 round : {u8{1}, u8{2}}) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      for (std::size_t j = 0; j < kPageSize; ++j) pattern[j] = static_cast<u8>(j * 7 + k + round);
      frames.pm.write(sources[k], pattern);
      const Gva gva = vma.start + k * kPageSize;
      EXPECT_EQ(store.store(vma, gva, frames.pm, sources[k]), kPageSize / 64);
      const std::span<const u8> slot = store.at(gva);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slot.data()) % kPageSize, 0u)
          << "slot " << k << " is not page-aligned";
      EXPECT_TRUE(std::ranges::equal(slot, pattern)) << "frame " << k << ", round " << int{round};
    }
  }
}

TEST(CriuPageStore, SizeCountsPresentPages) {
  const guest::Vma data = make_vma(0x1000'0000, 8, true);
  const guest::Vma meta = make_vma(0x2000'0000, 8, false);
  PageStore store;
  EXPECT_TRUE(store.empty());
  Frames frames;
  const Hpa page = frames.filled(3);
  for (u64 i = 0; i < 4; ++i) (void)store.store(data, data.start + i * kPageSize, frames.pm, page);
  for (u64 i = 0; i < 3; ++i) store.store_zero(meta, meta.start + i * kPageSize);
  EXPECT_EQ(store.size(), 7u);
  store.store_zero(data, data.start);  // re-dumps change state, not size
  store.store_zero(meta, meta.start);
  EXPECT_EQ(store.size(), 7u);
  // A VMA remapped over the data region's range replaces the dead region.
  (void)store.store(make_vma(data.start + 2 * kPageSize, 2, true), data.start + 2 * kPageSize,
                    frames.pm, page);
  EXPECT_EQ(store.size(), 4u);
  std::vector<guest::Vma> live = {meta};
  store.retain(live);
  EXPECT_EQ(store.size(), 3u);
}

#if defined(OOH_ASAN)
// Under AddressSanitizer a slot block is poisoned except for the slots that
// hold data, so a read of a slot nothing was dumped into is reported.
TEST(CriuPageStore, SlotsWithoutDataArePoisoned) {
  const guest::Vma vma = make_vma(0x1000'0000, 4, true);
  PageStore store;
  Frames frames;
  (void)store.store(vma, vma.start, frames.pm, frames.filled(1));
  const u8* slot = store.at(vma.start).data();
  EXPECT_EQ(__asan_region_is_poisoned(const_cast<u8*>(slot), kPageSize), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(slot + kPageSize)) << "the next slot holds nothing";
}
#endif

// ---- line-granular re-dumps: the slot/frame handshake ---------------------------

constexpr u64 kLinesPerPage = kPageSize / sim::PhysicalMemory::kLineSize;

TEST(CriuPageStore, RedumpMovesOnlyTheLinesWrittenSince) {
  const guest::Vma vma = make_vma(0x1000'0000, 4, true);
  PageStore store;
  Frames frames;
  const Hpa f = frames.filled(5);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), kLinesPerPage) << "first copy";
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), 0u) << "nothing written since";
  frames.pm.write_u64(f + 8, 1);
  frames.pm.write_u64(f + 40 * 64, 2);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), 2u);
  EXPECT_TRUE(std::ranges::equal(store.at(vma.start), frames.bytes(f)));
  // A zero store in between makes the slot forget its source.
  store.store_zero(vma, vma.start);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), kLinesPerPage);
}

// (a) Image A, then image B, then image A again on one frame: B's claim
// broke A's, so A takes the whole page.
TEST(CriuPageStore, AnotherImageCopyingTheFrameForcesAWholeCopy) {
  const guest::Vma vma = make_vma(0x1000'0000, 4, true);
  PageStore a, b;
  Frames frames;
  const Hpa f = frames.filled(5);
  EXPECT_EQ(a.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  frames.pm.write_u64(f + 64, 1);
  EXPECT_EQ(b.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  frames.pm.write_u64(f + 128, 2);
  EXPECT_EQ(a.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  EXPECT_TRUE(std::ranges::equal(a.at(vma.start), frames.bytes(f)));
  EXPECT_EQ(b.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  EXPECT_TRUE(std::ranges::equal(b.at(vma.start), frames.bytes(f)));
}

// (b) A frame freed and handed out again under a slot that copied it: the
// recycled frame keeps its bytes address, so the slot's source still names
// it, but the frame has no claimant, so the slot cannot keep the old lines.
TEST(CriuPageStore, ARecycledFrameUnderAnExistingSlotIsCopiedWhole) {
  const guest::Vma vma = make_vma(0x1000'0000, 4, true);
  PageStore store;
  Frames frames;
  const Hpa f = frames.filled(0xAA);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  frames.pm.free_frame(f);
  ASSERT_EQ(frames.pm.alloc_frame(), f);
  frames.pm.write_u64(f + 8, 1);  // the rest of the recycled frame reads zero
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), kLinesPerPage);
  EXPECT_TRUE(std::ranges::equal(store.at(vma.start), frames.bytes(f)));
  // An erased region is made again with slots that copied nothing.
  store.retain({});
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, f), kLinesPerPage);
}

// (c) A slot re-stored from another frame, then from the first again: the
// first frame's claim still names the slot, but the slot's source does not.
TEST(CriuPageStore, ASlotReStoredFromAnotherFrameCopiesTheFirstWhole) {
  const guest::Vma vma = make_vma(0x1000'0000, 4, true);
  PageStore store;
  Frames frames;
  const Hpa x = frames.filled(1), y = frames.filled(2);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, x), kLinesPerPage);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, y), kLinesPerPage);
  frames.pm.write_u64(x + 8, 3);
  EXPECT_EQ(store.store(vma, vma.start, frames.pm, x), kLinesPerPage);
  EXPECT_TRUE(std::ranges::equal(store.at(vma.start), frames.bytes(x)));
}

// ---- line-granular re-dumps against whole-page copies ---------------------------

/// dump_pages with every data page copied whole: each page goes through a
/// fresh frame of `scratch`, which no slot has claimed.
void dump_whole_pages(guest::GuestKernel& k, guest::Process& proc,
                      const std::vector<Gva>& pages, CheckpointImage& image,
                      sim::PhysicalMemory& scratch) {
  sim::GuestPageTable& pt = k.page_table(proc);
  for (const Gva gva : pages) {
    const sim::GuestPageTable::Lookup leaf = pt.lookup(gva);
    if (leaf.pte == nullptr || !leaf.pte->present) continue;
    const guest::Vma& vma = *proc.vma_of(gva);
    Hpa hpa = 0;
    const u8* live = nullptr;
    if (vma.data_backed && k.vm().ept().translate(leaf.gpa_page, hpa)) {
      live = k.ctx_of(proc).pmem.frame_data_if_present(hpa);
    }
    if (live == nullptr) {
      image.pages.store_zero(vma, gva);
      continue;
    }
    const Hpa copy = scratch.alloc_frame();
    scratch.write(copy, std::span<const u8>(live, kPageSize));
    EXPECT_EQ(image.pages.store(vma, gva, scratch, copy), kLinesPerPage);
    scratch.free_frame(copy);
  }
}

// Seeded op sequences over one data-backed process -- word and byte-run
// writes, swap-out and swap-in, munmap and mmap of the same range (frames
// recycle), dumps into two images in turn, a restore into a second process
// and dumps of that one -- and after every dump the image equals a
// reference image that copied each page whole.
TEST(CriuLineDumps, RandomOpsMatchWholePageCopies) {
  constexpr u64 kVmaPages = 12;
  constexpr std::array<Gva, 3> kData = {0x1000'0000, 0x1100'0000, 0x1200'0000};
  constexpr Gva kMeta = 0x1300'0000;
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    lib::TestBed bed;
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    for (const Gva base : kData) proc.mmap_fixed(base, kVmaPages * kPageSize, true);
    proc.mmap_fixed(kMeta, 4 * kPageSize, false);
    guest::Process* second = nullptr;  // the restore target, once made
    Checkpointer cp(k, Technique::kOracle);
    std::array<CheckpointImage, 3> images, refs;  // A, B, and C for the second process
    sim::PhysicalMemory scratch(4 * kPageSize);
    Rng rng(seed);
    u64 moved = 0, whole = 0, dumps = 0;
    const auto pick = [&](guest::Process* p) -> guest::Process& {
      return second != nullptr && rng.below(2) == 0 ? *second : *p;
    };
    const auto dump = [&](guest::Process& p, std::size_t i) {
      std::vector<Gva> pages;
      const bool all = rng.below(4) == 0;
      k.page_table(p).for_each_present([&](Gva gva, sim::Pte&) {
        if (all || rng.below(2) == 0) pages.push_back(gva);
      });
      images[i].record_layout(p);
      refs[i].record_layout(p);
      // Pages the image holds no slot for go first: a fresh slot's first
      // data store copies the whole page, also in a recycled block.
      std::vector<Gva> fresh, held;
      for (const Gva gva : pages) (images[i].pages.contains(gva) ? held : fresh).push_back(gva);
      const u64 fresh_moved = cp.dump_pages(p, fresh, images[i]);
      moved += fresh_moved + cp.dump_pages(p, held, images[i]);
      dump_whole_pages(k, p, pages, refs[i], scratch);
      u64 fresh_whole = 0;
      for (const Gva gva : pages) {
        if (const auto it = refs[i].pages.find(gva); it != refs[i].pages.end() && !it->second.empty()) {
          whole += kLinesPerPage;
          if (std::ranges::find(fresh, gva) != fresh.end()) fresh_whole += kLinesPerPage;
        }
      }
      ++dumps;
      EXPECT_EQ(fresh_moved, fresh_whole) << "dump " << dumps << ": a fresh slot kept stale lines";
      ASSERT_TRUE(images[i].pages == refs[i].pages) << "dump " << dumps << " into image " << i;
    };
    for (int op = 0; op < 300; ++op) {
      if (op == 200) {
        // Image A dies; the A made next reuses its blocks, stale bytes and
        // all, from this thread's pool.
        const std::size_t spares = base::HostBlock::spares();
        images[0] = CheckpointImage{};
        refs[0] = CheckpointImage{};
        EXPECT_GT(base::HostBlock::spares(), spares) << "image A's blocks were not recycled";
      }
      const Gva base = kData[rng.below(kData.size())];
      switch (rng.below(10)) {
        case 0: case 1: case 2:
          pick(&proc).write_u64(base + rng.below(kVmaPages * kPageSize / 8) * 8, rng.next());
          break;
        case 3: {
          std::vector<u8> run(1 + rng.below(300));
          for (u8& b : run) b = static_cast<u8>(rng.next());
          const u64 at = rng.below(kVmaPages * kPageSize - run.size());
          pick(&proc).write_bytes(base + at, run);
          break;
        }
        case 4:
          pick(&proc).touch_write(kMeta + rng.below(4) * kPageSize);
          break;
        case 5: {
          guest::Process& p = pick(&proc);
          (void)k.swap().evict(p, 1 + rng.below(4));
          break;
        }
        case 6: {
          guest::Process& p = pick(&proc);
          p.munmap(base);
          p.mmap_fixed(base, kVmaPages * kPageSize, true);
          p.write_u64(base + rng.below(kVmaPages) * kPageSize, rng.next());
          break;
        }
        case 7:
          if (second == nullptr && op > 100 && !images[0].vmas.empty()) {
            second = &k.create_process();
            restore(*second, images[0]);
            dump(*second, 2);
          } else {
            dump(pick(&proc), 2);
          }
          break;
        default:
          dump(proc, rng.below(2));
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_NE(second, nullptr);
    EXPECT_GT(dumps, 50u);
    // About two thirds at these seeds: A and B take turns claiming frames.
    EXPECT_LT(moved * 10, whole * 9) << moved << " of " << whole << " lines moved";
  }
}

// IMG-1 mutation: a frame write that does not mark its line (here the line
// is forgotten after write_u64 marked it) leaves the slot stale after a
// partial re-dump. With OOH_COHERENCE_AUDITS dump_pages raises IMG-1
// itself; otherwise the explicit audit does.
TEST(CriuLineDumps, AWriteThatSkipsItsLineMaskTripsImg1) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(4 * kPageSize, /*data_backed=*/true);
  for (u64 i = 0; i < 4; ++i) proc.write_u64(base + i * kPageSize, i + 1);
  Checkpointer cp(k, Technique::kOracle);
  CheckpointImage image;
  image.record_layout(proc);
  EXPECT_EQ(cp.dump_pages(proc, {base}, image), kLinesPerPage);
  Hpa hpa = 0;
  ASSERT_TRUE(k.vm().ept().translate(k.page_table(proc).pte(base)->gpa_page, hpa));
  sim::PhysicalMemory& pmem = k.ctx_of(proc).pmem;

  proc.write_u64(base + 64, 7);  // unmutated: a one-line copy that audits clean
  EXPECT_EQ(cp.dump_pages(proc, {base}, image), 1u);
  EXPECT_NO_THROW(audit_slot(image.pages, base, pmem.frame_data_if_present(hpa), k.vm().id()));

  proc.write_u64(base + 200, 0xBAD);
  pmem.debug_forget_lines(hpa);
  try {
    EXPECT_EQ(cp.dump_pages(proc, {base}, image), 0u) << "the forgotten line stays stale";
    audit_slot(image.pages, base, pmem.frame_data_if_present(hpa), k.vm().id());
    ADD_FAILURE() << "expected InvariantViolation IMG-1, none thrown";
  } catch (const check::InvariantViolation& v) {
    EXPECT_EQ(v.id, "IMG-1") << v.what();
    EXPECT_EQ(v.gva, base);
  }
}

}  // namespace
}  // namespace ooh::criu

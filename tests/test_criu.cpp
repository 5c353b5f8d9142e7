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
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "ooh/testbed.hpp"
#include "sim/page_table.hpp"
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

std::vector<u8> filled_page(u8 value) { return std::vector<u8>(kPageSize, value); }

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
  const std::vector<u8> page = filled_page(7);
  for (const Gva gva : order) {
    const bool is_low = gva < high.start;
    store.store(is_low ? low : high, gva, is_low ? page.data() : nullptr);
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
  const std::vector<u8> page = filled_page(1);
  store.store(vma, vma.start + 2 * kPageSize, page.data());
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
  store.store(meta, meta.start, nullptr);
  store.store(data, data.start, nullptr);  // a data page whose frame is gone
  EXPECT_TRUE(store.at(meta.start).empty());
  EXPECT_TRUE(store.at(data.start).empty());
  EXPECT_EQ(store.find(meta.start)->second.size(), 0u);
}

TEST(CriuPageStore, RedumpKeepsTheSlotAddress) {
  const guest::Vma vma = make_vma(0x1000'0000, 16, true);
  PageStore store;
  const std::vector<u8> first = filled_page(1), second = filled_page(2);
  store.store(vma, vma.start + 5 * kPageSize, first.data());
  const u8* slot = store.at(vma.start + 5 * kPageSize).data();
  for (u64 i = 0; i < 16; ++i) store.store(vma, vma.start + i * kPageSize, first.data());
  store.store(vma, vma.start + 5 * kPageSize, second.data());
  const std::span<const u8> got = store.at(vma.start + 5 * kPageSize);
  EXPECT_EQ(got.data(), slot);
  EXPECT_TRUE(std::ranges::equal(got, second));
}

// Slots are page-aligned whatever the source's alignment, so the streamed
// copy writes whole cache lines; the bytes match the source, also after a
// re-dump into the same slot.
TEST(CriuPageStore, DataSlotsArePageAlignedAndMatchUnalignedSources) {
  const guest::Vma vma = make_vma(0x1000'0000, 8, true);
  PageStore store;
  std::vector<u8> buffer(3 * kPageSize);
  const auto addr = reinterpret_cast<std::uintptr_t>(buffer.data());
  u8* aligned = buffer.data() + (page_ceil(addr) - addr);
  const std::array<std::size_t, 3> offsets = {0, 8, 16};
  for (const u8 round : {u8{1}, u8{2}}) {
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      u8* src = aligned + offsets[k];
      for (std::size_t j = 0; j < kPageSize; ++j) src[j] = static_cast<u8>(j * 7 + k + round);
      const Gva gva = vma.start + k * kPageSize;
      store.store(vma, gva, src);
      const std::span<const u8> slot = store.at(gva);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slot.data()) % kPageSize, 0u)
          << "slot " << k << " is not page-aligned";
      EXPECT_TRUE(std::ranges::equal(slot, std::span<const u8>(src, kPageSize)))
          << "source offset " << offsets[k] << ", round " << int{round};
    }
  }
}

TEST(CriuPageStore, SizeCountsPresentPages) {
  const guest::Vma data = make_vma(0x1000'0000, 8, true);
  const guest::Vma meta = make_vma(0x2000'0000, 8, false);
  PageStore store;
  EXPECT_TRUE(store.empty());
  const std::vector<u8> page = filled_page(3);
  for (u64 i = 0; i < 4; ++i) store.store(data, data.start + i * kPageSize, page.data());
  for (u64 i = 0; i < 3; ++i) store.store(meta, meta.start + i * kPageSize, nullptr);
  EXPECT_EQ(store.size(), 7u);
  store.store(data, data.start, nullptr);  // re-dumps change state, not size
  store.store(meta, meta.start, nullptr);
  EXPECT_EQ(store.size(), 7u);
  // A VMA remapped over the data region's range replaces the dead region.
  store.store(make_vma(data.start + 2 * kPageSize, 2, true), data.start + 2 * kPageSize,
              page.data());
  EXPECT_EQ(store.size(), 4u);
  std::vector<guest::Vma> live = {meta};
  store.retain(live);
  EXPECT_EQ(store.size(), 3u);
}

}  // namespace
}  // namespace ooh::criu

// Property tests of the unified DirtyTracker API, parameterized over
// (technique x write pattern): completeness (collected superset of truth),
// exactness (no pages reported that were never written, modulo VMA scope),
// interval semantics, and the paper's cost ordering.
#include <gtest/gtest.h>

#include <unordered_set>

#include "base/rng.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "guest/ooh_module.hpp"
#include "ooh/trackers.hpp"

namespace ooh::lib {
namespace {

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

enum class Pattern { kSequential, kRandom, kHotCold, kSparse, kRewrites };

std::string pattern_label(Pattern p) {
  switch (p) {
    case Pattern::kSequential: return "sequential";
    case Pattern::kRandom: return "random";
    case Pattern::kHotCold: return "hotcold";
    case Pattern::kSparse: return "sparse";
    case Pattern::kRewrites: return "rewrites";
  }
  return "?";
}

WorkloadFn make_pattern(Pattern p, Gva base, u64 pages) {
  switch (p) {
    case Pattern::kSequential:
      return [=](guest::Process& proc) {
        for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
      };
    case Pattern::kRandom:
      return [=](guest::Process& proc) {
        Rng rng(1234);
        for (u64 i = 0; i < pages * 2; ++i) {
          proc.touch_write(base + rng.below(pages) * kPageSize);
        }
      };
    case Pattern::kHotCold:
      return [=](guest::Process& proc) {
        for (int rep = 0; rep < 50; ++rep) {
          proc.touch_write(base);  // hot page
          proc.touch_write(base + (rep % pages) * kPageSize);
        }
      };
    case Pattern::kSparse:
      return [=](guest::Process& proc) {
        for (u64 i = 0; i < pages; i += 7) proc.touch_write(base + i * kPageSize);
      };
    case Pattern::kRewrites:
      return [=](guest::Process& proc) {
        for (int rep = 0; rep < 3; ++rep) {
          for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
        }
      };
  }
  return {};
}

class TrackerProperty
    : public ::testing::TestWithParam<std::tuple<Technique, Pattern>> {};

TEST_P(TrackerProperty, CompleteAndExact) {
  const auto [tech, pattern] = GetParam();
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 300;
  const Gva base = proc.mmap(pages * kPageSize);

  auto tracker = make_tracker(tech, k, proc);
  RunOptions opts;
  opts.collect_period = msecs(0.1);  // several intervals
  const RunResult r =
      run_tracked(k, proc, make_pattern(pattern, base, pages), tracker.get(), opts);

  // Completeness: every truly dirtied page was reported.
  EXPECT_EQ(r.captured_truth, r.truth_pages)
      << tech_label(tech) << " missed " << (r.truth_pages - r.captured_truth)
      << " of " << r.truth_pages << " dirty pages";
  EXPECT_EQ(r.dropped, 0u);
  // Exactness: nothing reported that was not actually written.
  EXPECT_EQ(r.unique_pages, r.truth_pages)
      << tech_label(tech) << " over-reported pages it should not have";
  tracker->shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniquesAllPatterns, TrackerProperty,
    ::testing::Combine(::testing::ValuesIn(kAll),
                       ::testing::Values(Pattern::kSequential, Pattern::kRandom,
                                         Pattern::kHotCold, Pattern::kSparse,
                                         Pattern::kRewrites)),
    [](const auto& pinfo) {
      return tech_label(std::get<0>(pinfo.param)) + std::string("_") +
             pattern_label(std::get<1>(pinfo.param));
    });

// The segment backend trades precision for range metadata (one shared Pte
// per run): it must never miss a dirty page, but it reports supersets, so
// it runs the same pattern sweep with the exactness check relaxed to the
// superset direction instead of joining kAll.
class SegTrackerProperty : public ::testing::TestWithParam<Pattern> {};

TEST_P(SegTrackerProperty, CompleteWithSupersetReports) {
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 300;
  const Gva base = proc.mmap(pages * kPageSize);

  auto tracker = make_tracker(Technique::kSeg, k, proc);
  RunOptions opts;
  opts.collect_period = msecs(0.1);
  const RunResult r =
      run_tracked(k, proc, make_pattern(GetParam(), base, pages), tracker.get(), opts);

  EXPECT_EQ(r.captured_truth, r.truth_pages)
      << "seg missed " << (r.truth_pages - r.captured_truth) << " of "
      << r.truth_pages << " dirty pages";
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GE(r.unique_pages, r.truth_pages);
  tracker->shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, SegTrackerProperty,
                         ::testing::Values(Pattern::kSequential, Pattern::kRandom,
                                           Pattern::kHotCold, Pattern::kSparse,
                                           Pattern::kRewrites),
                         [](const auto& pinfo) { return pattern_label(pinfo.param); });

class TrackerIntervalTest : public ::testing::TestWithParam<Technique> {};

TEST_P(TrackerIntervalTest, IntervalsAreDisjointWindows) {
  // Pages dirtied in interval 1 but untouched in interval 2 must not appear
  // in interval 2's collection; pages re-dirtied must reappear.
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(16 * kPageSize);
  for (int i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);  // warm

  auto tracker = make_tracker(GetParam(), k, proc);
  tracker->init();
  tracker->begin_interval();
  guest::Scheduler& sched = k.scheduler();

  sched.enter_process(proc.pid());
  for (int i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
  sched.exit_process(proc.pid());
  std::vector<Gva> first = tracker->collect();
  tracker->begin_interval();
  EXPECT_EQ(first.size(), 16u);

  sched.enter_process(proc.pid());
  proc.touch_write(base + 3 * kPageSize);
  proc.touch_write(base + 9 * kPageSize);
  sched.exit_process(proc.pid());
  std::vector<Gva> second = tracker->collect();
  EXPECT_EQ(second, (std::vector<Gva>{base + 3 * kPageSize, base + 9 * kPageSize}));
  tracker->shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, TrackerIntervalTest, ::testing::ValuesIn(kAll),
                         [](const auto& pinfo) { return tech_label(pinfo.param); });

TEST(TrackerPhases, SpmlCollectIsDominatedByReverseMapping) {
  // Fig. 3: reverse mapping is the bottleneck of SPML collection.
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 2560;  // 10 MiB
  const Gva base = proc.mmap(pages * kPageSize);
  auto spml = make_tracker(Technique::kSpml, k, proc);
  auto epml_bed = std::make_unique<TestBed>();

  const RunResult r = run_tracked(
      k, proc,
      [&](guest::Process& p) {
        for (u64 i = 0; i < pages; ++i) p.touch_write(base + i * kPageSize);
      },
      spml.get());
  const double collect_us = r.phases.collect.count();
  const double rmap_us =
      bed.machine().cost.reverse_map_per_page_us(proc.mapped_bytes()) *
      static_cast<double>(r.events.get(Event::kReverseMapLookup));
  EXPECT_GT(rmap_us / collect_us, 0.5)
      << "reverse mapping should dominate SPML collection";
  spml->shutdown();
}

TEST(TrackerPhases, EpmlCollectFarCheaperThanSpmlAndProc) {
  const u64 pages = 2560;
  auto collect_time = [&](Technique t) {
    TestBed bed;
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    const Gva base = proc.mmap(pages * kPageSize);
    auto tracker = make_tracker(t, k, proc);
    const RunResult r = run_tracked(
        k, proc,
        [&](guest::Process& p) {
          for (u64 i = 0; i < pages; ++i) p.touch_write(base + i * kPageSize);
        },
        tracker.get());
    tracker->shutdown();
    return r.phases.collect.count();
  };
  const double epml = collect_time(Technique::kEpml);
  const double spml = collect_time(Technique::kSpml);
  const double proc = collect_time(Technique::kProc);
  EXPECT_LT(epml * 10, spml);
  EXPECT_LT(epml * 10, proc);
}

TEST(TrackerScope, SpmlAndEpmlRequireTheirModuleMode) {
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& p1 = k.create_process();
  (void)p1.mmap(kPageSize);
  auto spml = make_tracker(Technique::kSpml, k, p1);
  spml->init();
  EXPECT_EQ(k.ooh_module()->mode(), guest::OohMode::kSpml);
  spml->shutdown();
  // Switching technique reloads the module in the other mode.
  guest::Process& p2 = k.create_process();
  (void)p2.mmap(kPageSize);
  auto epml = make_tracker(Technique::kEpml, k, p2);
  epml->init();
  EXPECT_EQ(k.ooh_module()->mode(), guest::OohMode::kEpml);
  epml->shutdown();
}

TEST(TrackerScope, SpmlSurvivorKeepsLoggingWhenAnotherSessionOnItsVcpuEnds) {
  // Both processes run on vCPU 0 and share its PML session; ending one must
  // leave the other's logging armed.
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& gone = k.create_process();
  guest::Process& survivor = k.create_process();
  ASSERT_EQ(gone.cpu(), survivor.cpu());
  constexpr u64 kBytes = 16 * kPageSize;
  const Gva gone_base = gone.mmap(kBytes);
  const Gva base = survivor.mmap(kBytes);
  gone.touch_range_write(gone_base, kBytes);
  survivor.touch_range_write(base, kBytes);

  auto gone_tracker = make_tracker(Technique::kSpml, k, gone);
  auto tracker = make_tracker(Technique::kSpml, k, survivor);
  gone_tracker->init();
  tracker->init();
  gone_tracker->shutdown();

  tracker->begin_interval();
  survivor.truth_reset();
  k.scheduler().enter_process(survivor.pid());
  survivor.touch_range_write(base, kBytes);
  k.scheduler().exit_process(survivor.pid());
  std::vector<Gva> truth;
  for (const auto& [page, seq] : survivor.truth_dirty()) truth.push_back(page);
  ASSERT_EQ(truth.size(), 16u);
  EXPECT_EQ(tracker->collect(), truth);
  tracker->shutdown();
  bed.audit();
}

// A seg session leaves the page table segment-backed, where one Pte covers a
// whole run and its gpa_page is the run's first page. A later wp session
// must write-protect every page's own GPA, or writes to all but a run's
// first page go unseen.
TEST(TrackerScope, WpAfterSegProtectsEveryPageOfASegment) {
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  constexpr u64 kPages = 16;
  constexpr u64 kBytes = kPages * kPageSize;
  const Gva base = proc.mmap(kBytes);
  proc.touch_range_write(base, kBytes);

  auto seg = make_tracker(Technique::kSeg, k, proc);
  seg->init();
  seg->shutdown();
  ASSERT_EQ(k.page_table(proc).backend(), sim::TranslationBackend::kSegment);
  ASSERT_LT(k.page_table(proc).segment_table()->segment_count(), kPages);

  auto wp = make_tracker(Technique::kWp, k, proc);
  wp->init();
  wp->begin_interval();
  k.scheduler().enter_process(proc.pid());
  proc.touch_range_write(base, kBytes);
  k.scheduler().exit_process(proc.pid());
  std::vector<Gva> every;
  for (u64 i = 0; i < kPages; ++i) every.push_back(base + i * kPageSize);
  EXPECT_EQ(wp->collect(), every);
  wp->shutdown();
}

TEST(TrackerNames, AreStable) {
  EXPECT_EQ(technique_name(Technique::kProc), "/proc");
  EXPECT_EQ(technique_name(Technique::kUfd), "ufd");
  EXPECT_EQ(technique_name(Technique::kSpml), "SPML");
  EXPECT_EQ(technique_name(Technique::kEpml), "EPML");
  EXPECT_EQ(technique_name(Technique::kOracle), "oracle");
}

}  // namespace
}  // namespace ooh::lib

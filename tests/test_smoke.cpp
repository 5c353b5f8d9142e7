// End-to-end smoke: every technique tracks a simple writer and captures the
// dirtied pages; EPML charges the least tracked-side overhead.
#include <gtest/gtest.h>

#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"

namespace ooh {
namespace {

lib::WorkloadFn page_writer(Gva base, u64 pages, int passes) {
  return [=](guest::Process& p) {
    for (int pass = 0; pass < passes; ++pass) {
      for (u64 i = 0; i < pages; ++i) {
        p.write_u64(base + i * kPageSize, i);
      }
    }
  };
}

class SmokeTest : public ::testing::TestWithParam<lib::Technique> {};

TEST_P(SmokeTest, CapturesAllDirtyPages) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 256;  // 1 MiB
  const Gva base = proc.mmap(pages * kPageSize);

  auto tracker = lib::make_tracker(GetParam(), k, proc);
  const lib::RunResult r =
      lib::run_tracked(k, proc, page_writer(base, pages, 3), tracker.get());

  EXPECT_EQ(r.truth_pages, pages);
  EXPECT_EQ(r.captured_truth, pages) << "technique missed dirty pages";
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GT(r.tracked_time.count(), 0.0);
  tracker->shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, SmokeTest,
                         ::testing::Values(lib::Technique::kProc, lib::Technique::kUfd,
                                           lib::Technique::kSpml, lib::Technique::kEpml,
                                           lib::Technique::kWp, lib::Technique::kOracle),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case lib::Technique::kProc: return "proc";
                             case lib::Technique::kUfd: return "ufd";
                             case lib::Technique::kSpml: return "spml";
                             case lib::Technique::kEpml: return "epml";
                             case lib::Technique::kWp: return "wp";
                             case lib::Technique::kOracle: return "oracle";
                             case lib::Technique::kSeg: return "seg";
                             case lib::Technique::kAdaptive: return "adaptive";
                           }
                           return "unknown";
                         });

TEST(SmokeOrdering, EpmlTrackedOverheadBelowProcUfdAndSpml) {
  // Warmed memory + several collection intervals: the paper's steady-state
  // scenario, where /proc pays write-protect faults and pagemap scans, ufd
  // pays userspace fault handling, SPML pays reverse mapping, and EPML pays
  // almost nothing (Fig. 4's ordering).
  const u64 pages = 2048;  // 8 MiB
  auto run = [&](std::optional<lib::Technique> t) {
    lib::TestBed bed;
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    const Gva base = proc.mmap(pages * kPageSize);
    for (u64 i = 0; i < pages; ++i) proc.write_u64(base + i * kPageSize, i);  // warm
    std::unique_ptr<lib::DirtyTracker> tracker;
    if (t) tracker = lib::make_tracker(*t, k, proc);
    lib::RunOptions opts;
    opts.collect_period = msecs(0.5);
    return lib::run_tracked(k, proc, page_writer(base, pages, 5), tracker.get(), opts)
        .tracked_time;
  };
  const auto ideal = run(std::nullopt);
  const auto proc_t = run(lib::Technique::kProc);
  const auto ufd_t = run(lib::Technique::kUfd);
  const auto spml_t = run(lib::Technique::kSpml);
  const auto epml_t = run(lib::Technique::kEpml);

  EXPECT_LT(ideal.count(), epml_t.count());
  EXPECT_LT(epml_t.count(), proc_t.count());
  EXPECT_LT(epml_t.count(), ufd_t.count());
  EXPECT_LT(epml_t.count(), spml_t.count());
}

}  // namespace
}  // namespace ooh

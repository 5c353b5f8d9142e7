// Live-migration tests beyond the basic hypervisor suite: convergence
// behaviour, correctness of the transferred set, and coexistence with
// in-guest OoH sessions (the paper's motivating dual use of PML).
#include <gtest/gtest.h>

#include <unordered_set>

#include "hypervisor/migration.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"

namespace ooh::hv {
namespace {

TEST(Migration, TransfersEveryMappedPageAtLeastOnce) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 200;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  MigrationEngine engine(bed.hypervisor());
  const MigrationReport rep = engine.migrate(bed.vm(), [] {});
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.initial_pages, pages);
  EXPECT_GE(rep.pages_sent, rep.initial_pages);
  EXPECT_EQ(rep.stop_copy_pages, 0u) << "idle guest: nothing dirty at the end";
}

TEST(Migration, ResendsExactlyTheDirtiedPages) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 100;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  int round = 0;
  MigrationEngine engine(bed.hypervisor());
  MigrationOptions opts;
  opts.stop_copy_threshold_pages = 0;  // only a fully clean round converges
  const MigrationReport rep = engine.migrate(bed.vm(), [&] {
    if (round++ == 0) {
      for (int i = 0; i < 10; ++i) proc.touch_write(base + i * kPageSize);
    }
  });
  // initial copy + the 10 re-dirtied pages, nothing else.
  EXPECT_EQ(rep.pages_sent, rep.initial_pages + 10);
  EXPECT_TRUE(rep.converged);
}

TEST(Migration, DowntimeBoundedByThreshold) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 256;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  MigrationEngine engine(bed.hypervisor());
  MigrationOptions opts;
  opts.stop_copy_threshold_pages = 32;
  u64 hot = pages;
  const MigrationReport rep = engine.migrate(
      bed.vm(),
      [&] {  // exponentially cooling working set
        hot = std::max<u64>(hot / 4, 1);
        for (u64 i = 0; i < hot; ++i) proc.touch_write(base + i * kPageSize);
      },
      opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.stop_copy_pages, 32u);
  const double send_us = bed.machine().cost.migration_send_page_us;
  EXPECT_LE(rep.downtime.count(), 32 * send_us * 1.5);
}

TEST(Migration, CoexistsWithEpmlSession) {
  // EPML logs through guest PTE dirty flags and its own buffer; migration
  // uses EPT dirty flags and the hypervisor buffer. Both see their events.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  auto tracker = lib::make_tracker(lib::Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();

  MigrationEngine engine(bed.hypervisor());
  int rounds = 0;
  const MigrationReport rep = engine.migrate(bed.vm(), [&] {
    if (rounds++ == 0) {
      k.scheduler().enter_process(proc.pid());
      for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
      k.scheduler().exit_process(proc.pid());
    }
  });
  EXPECT_TRUE(rep.converged);
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), 16u) << "the EPML session observed its writes untouched";
  tracker->shutdown();
}

TEST(Migration, CoexistsWithSpmlSessionBothComplete) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  tracker->begin_interval();

  MigrationEngine engine(bed.hypervisor());
  std::unordered_set<Gva> written;
  int rounds = 0;
  const MigrationReport rep = engine.migrate(bed.vm(), [&] {
    if (rounds++ < 2) {
      k.scheduler().enter_process(proc.pid());
      for (u64 i = 0; i < 8; ++i) {
        const Gva page = base + (i + rounds * 8) * kPageSize;
        proc.touch_write(page);
        written.insert(page);
      }
      k.scheduler().exit_process(proc.pid());
    }
  });
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.pages_sent, rep.initial_pages + written.size())
      << "migration saw the guest's writes";
  const std::vector<Gva> dirty = tracker->collect();
  for (const Gva page : written) {
    EXPECT_NE(std::find(dirty.begin(), dirty.end(), page), dirty.end())
        << "SPML session missed a page while migration shared the buffer";
  }
  tracker->shutdown();
}

TEST(Migration, DrainWindowWritesJoinTheStopAndCopySet) {
  // Final-round accounting regression: writes landing between the last
  // pre-copy harvest and the vCPU pause used to be dropped — they sat in the
  // PML buffer / dirty log but the engine paused and sent only the already
  // harvested set, silently corrupting the destination. They must join the
  // stop-and-copy set.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  MigrationEngine engine(bed.hypervisor());
  MigrationOptions opts;
  opts.drain_window_body = [&] {
    for (int i = 0; i < 7; ++i) proc.touch_write(base + i * kPageSize);
  };
  const MigrationReport rep = engine.migrate(bed.vm(), [] {}, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.stop_copy_pages, 7u)
      << "the drain-window writes must be re-sent while the VM is paused";
  EXPECT_EQ(rep.pages_sent, rep.initial_pages + 7);
}

TEST(Migration, NonConvergenceCutoffStillCapturesDrainWindowWrites) {
  // The forced stop-and-copy after max_rounds has the same drain window and
  // must apply the same accounting.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  MigrationEngine engine(bed.hypervisor());
  MigrationOptions opts;
  opts.max_rounds = 2;
  opts.stop_copy_threshold_pages = 0;
  opts.drain_window_body = [&] {
    for (u64 i = 32; i < 35; ++i) proc.touch_write(base + i * kPageSize);
  };
  const MigrationReport rep = engine.migrate(bed.vm(), [&] {
    // Hot set of 16 pages redirtied every quantum: never converges.
    for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
  });
  // Run again with the drain-window options (the lambda above used defaults).
  const MigrationReport rep2 = engine.migrate(
      bed.vm(),
      [&] {
        for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
      },
      opts);
  EXPECT_TRUE(rep.converged) << "sanity: default options converge";
  EXPECT_FALSE(rep2.converged);
  EXPECT_FALSE(rep2.aborted);
  EXPECT_EQ(rep2.stop_copy_pages, 16u + 3u)
      << "forced stop-and-copy = last hot set + drain-window writes";
}

TEST(Migration, ForcedCutoffCountsItsRoundInReportAndCounters) {
  // Accounting regression: the forced stop-and-copy after max_rounds runs a
  // full extra guest quantum + harvest of its own, but used to increment
  // neither rep.rounds nor Event::kMigrationRound — the report undercounted
  // how many quanta the guest ran during pre-copy.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const u64 pages = 64;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  MigrationEngine engine(bed.hypervisor());
  MigrationOptions opts;
  opts.max_rounds = 2;
  opts.stop_copy_threshold_pages = 0;
  const u64 rounds_before = bed.ctx().counters.get(Event::kMigrationRound);
  const MigrationReport rep = engine.migrate(
      bed.vm(),
      [&] {  // 16-page hot set redirtied every quantum: never converges
        for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);
      },
      opts);
  EXPECT_FALSE(rep.converged);
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.rounds, 3u) << "max_rounds pre-copy rounds + the cutoff round";
  EXPECT_EQ(bed.ctx().counters.get(Event::kMigrationRound) - rounds_before, 3u)
      << "the event stream must agree with the report";
  EXPECT_EQ(rep.stop_copy_pages, 16u);
}

TEST(Migration, BackToBackMigrationsWork) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(32 * kPageSize);
  for (int i = 0; i < 32; ++i) proc.touch_write(base + i * kPageSize);
  MigrationEngine engine(bed.hypervisor());
  const MigrationReport r1 = engine.migrate(bed.vm(), [] {});
  const MigrationReport r2 = engine.migrate(bed.vm(), [] {});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r1.initial_pages, r2.initial_pages);
}

}  // namespace
}  // namespace ooh::hv

// Epoch-parallel engine determinism pins (invariant EPOCH-1): virtual-time
// outputs are a pure function of the epoch bodies — worker count, real-time
// completion order (shuffled via the seeded stagger knob) and OS scheduling
// cannot leak one bit into them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "ooh/epoch_run.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/epoch/epoch_pool.hpp"

namespace ooh::lib {
namespace {

TestBedOptions small_bed() {
  TestBedOptions opts;
  opts.host_mem_bytes = 2 * kGiB;
  opts.vm_mem_bytes = 256 * kMiB;
  return opts;
}

/// One self-contained figure cell: its own bed, a tracked run, and the
/// cell's virtual-time results rendered to the bytes a figure would emit.
std::string run_cell(std::size_t i) {
  TestBed bed(small_bed());
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 48 + (i % 3) * 16;
  const Gva base = proc.mmap(pages * kPageSize);
  const Technique tech = i % 2 == 0 ? Technique::kEpml : Technique::kProc;
  auto tracker = make_tracker(tech, k, proc);
  const RunResult r = run_tracked(
      k, proc,
      [=](guest::Process& p) {
        Rng rng(1000 + i);
        for (u64 n = 0; n < pages * 2; ++n) {
          p.touch_write(base + rng.below(pages) * kPageSize);
        }
      },
      tracker.get());
  tracker->shutdown();
  return std::to_string(r.tracked_time.count()) + "," +
         std::to_string(r.tracker_time().count()) + "," +
         std::to_string(r.unique_pages) + "," + std::to_string(r.dropped);
}

TEST(EpochPool, ParallelCellResultsBitIdenticalToSerial) {
  constexpr std::size_t kCells = 9;
  epoch::Options serial;
  serial.threads = 1;
  const std::vector<std::string> expect =
      epoch::EpochPool::map<std::string>(kCells, run_cell, serial);
  for (const unsigned threads : {2u, 4u, 8u}) {
    epoch::Options opt;
    opt.threads = threads;
    const auto got = epoch::EpochPool::map<std::string>(kCells, run_cell, opt);
    EXPECT_EQ(expect, got) << threads << " epoch workers diverged from serial";
  }
}

TEST(EpochPool, CompletionOrderShuffleCannotLeakIntoResults) {
  constexpr std::size_t kCells = 6;
  epoch::Options serial;
  serial.threads = 1;
  const auto expect = epoch::EpochPool::map<std::string>(kCells, run_cell, serial);
  for (const u64 seed : {u64{1}, u64{0xdead}, u64{0x5eed5eed}}) {
    epoch::Options opt;
    opt.threads = 4;
    opt.stagger_seed = seed;  // seeded yield storms permute real-time finish order
    const auto got = epoch::EpochPool::map<std::string>(kCells, run_cell, opt);
    EXPECT_EQ(expect, got) << "stagger seed " << seed << " leaked into results";
  }
}

TEST(EpochPool, FirstErrorByEpochIndexWinsDeterministically) {
  for (const unsigned threads : {1u, 4u}) {
    epoch::Options opt;
    opt.threads = threads;
    try {
      epoch::EpochPool::run_indexed(
          8,
          [](std::size_t i) {
            if (i % 3 == 2) throw std::runtime_error("epoch " + std::to_string(i));
          },
          opt);
      FAIL() << "no exception surfaced";
    } catch (const std::runtime_error& e) {
      // Epochs 2, 5 (and 8, out of range) throw; the serial loop hits 2
      // first, so the pool must rethrow 2 regardless of worker count.
      EXPECT_STREQ(e.what(), "epoch 2");
    }
  }
}

TEST(EpochPool, WorkerCountCapsAtEpochCount) {
  epoch::Options opt;
  opt.threads = 16;
  EXPECT_EQ(epoch::EpochPool::workers_for(3, opt), 3u);
  EXPECT_EQ(epoch::EpochPool::workers_for(0, opt), 0u);
  opt.threads = 1;
  EXPECT_EQ(epoch::EpochPool::workers_for(8, opt), 1u);
}

TEST(EpochRun, EnvThreadKnobParses) {
  // Not set in the test environment: auto-size sentinel.
  EXPECT_EQ(epoch_threads_from_env(), 0u);
}

}  // namespace
}  // namespace ooh::lib

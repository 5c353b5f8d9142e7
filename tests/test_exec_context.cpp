// Execution-context tests: per-vCPU counters merge into machine-wide
// totals, the sharded frame allocator is safe under concurrent tenants,
// serial and parallel TestBed runs produce bit-identical per-VM virtual
// timelines (the refactor's core invariant), a failing fleet rethrows the
// lowest-index tenant's error, and the scheduler delivers a
// quantum tick whose deadline expired inside a periodic service window.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "guest/procfs.hpp"
#include "hypervisor/migration.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/machine.hpp"
#include "trackers/boehmgc/gc.hpp"
#include "trackers/criu/checkpoint.hpp"
#include "workloads/microbench.hpp"
#include "workloads/registry.hpp"

namespace ooh {
namespace {

TEST(ExecContext, CountersMergeIntoMachineTotals) {
  sim::Machine m(64 * kMiB, CostModel::unit());
  sim::ExecContext& a = m.create_context();
  sim::ExecContext& b = m.create_context();
  a.count(Event::kVmExit, 3);
  a.count(Event::kTlbMiss, 7);
  b.count(Event::kVmExit, 5);
  b.count(Event::kHypercall, 11);

  const EventCounters total = m.total_counters();
  EXPECT_EQ(total.get(Event::kVmExit), 8u);
  EXPECT_EQ(total.get(Event::kTlbMiss), 7u);
  EXPECT_EQ(total.get(Event::kHypercall), 11u);
  EXPECT_EQ(total.get(Event::kPmlLogGpa), 0u);
  EXPECT_EQ(m.context_count(), 2u);
}

TEST(ExecContext, MergeIsPlainPerEventAddition) {
  EventCounters x, y;
  x.add(Event::kTlbHit, 2);
  y.add(Event::kTlbHit, 40);
  y.add(Event::kEptWalk, 1);
  x.merge(y);
  EXPECT_EQ(x.get(Event::kTlbHit), 42u);
  EXPECT_EQ(x.get(Event::kEptWalk), 1u);
  EXPECT_EQ(y.get(Event::kTlbHit), 40u) << "merge must not mutate its source";
}

TEST(ExecContext, ClocksAreIndependentPerContext) {
  sim::Machine m(64 * kMiB, CostModel::unit());
  sim::ExecContext& a = m.create_context();
  sim::ExecContext& b = m.create_context();
  a.charge_us(10.0);
  b.charge_us(3.0);
  EXPECT_DOUBLE_EQ(a.clock.now().count(), 10.0);
  EXPECT_DOUBLE_EQ(b.clock.now().count(), 3.0);
  EXPECT_DOUBLE_EQ(m.max_clock().count(), 10.0);
}

TEST(PhysicalMemoryParallel, ConcurrentAllocFreeStaysConsistent) {
  sim::PhysicalMemory pmem(64 * kMiB);  // 16k frames, four table chunks
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 512;
  constexpr u64 kChunk = sim::PhysicalMemory::kChunkFrames;
  // Reserve frames 1 .. 2*kChunk-1 untouched, so every thread's first touch
  // below lands in the same, still-uninstalled chunk 1: the chunk CAS race.
  const Hpa reserved = pmem.alloc_frames_contiguous(2 * kChunk - 1);
  ASSERT_EQ(page_index(reserved), 1u);
  ASSERT_EQ(pmem.installed_chunks(), 0u);
  const auto race_frame = [&](unsigned t) { return (kChunk + 1 + 3 * t) << kPageShift; };
  std::vector<std::vector<Hpa>> got(kThreads);
  {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        pmem.frame_data(race_frame(t))[8] = static_cast<u8>(0xA0 + t);
        for (unsigned i = 0; i < kPerThread; ++i) {
          const Hpa f = pmem.alloc_frame();
          pmem.write_u64(f, t * 1000003ull + i);
          got[t].push_back(f);
        }
        // Free half back, so shard free lists see cross-thread recycling.
        for (unsigned i = 0; i < kPerThread / 2; ++i) {
          pmem.free_frame(got[t][i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  EXPECT_EQ(pmem.used_frames(), u64{kThreads} * (kPerThread / 2) + 2 * kChunk - 1);
  // Every racing first touch survived in the one chunk that won the CAS.
  for (unsigned t = 0; t < kThreads; ++t) {
    const u8* data = pmem.frame_data_if_present(race_frame(t));
    ASSERT_NE(data, nullptr) << "thread " << t << "'s first touch was lost";
    EXPECT_EQ(data[8], 0xA0 + t);
  }
  // Only chunk 1 (the race) and chunk 2 (the bump-allocated frames).
  EXPECT_EQ(pmem.installed_chunks(), 2u);
  // Every surviving frame still holds the value its owner wrote.
  std::set<Hpa> live;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = kPerThread / 2; i < kPerThread; ++i) {
      EXPECT_EQ(pmem.read_u64(got[t][i]), t * 1000003ull + i);
      live.insert(got[t][i]);
    }
  }
  EXPECT_EQ(live.size(), std::size_t{kThreads} * (kPerThread / 2))
      << "no frame was handed out twice";
}

// ---- serial vs. parallel determinism ----------------------------------------

struct TenantOutcome {
  double clock_us = 0.0;
  EventCounters counters;
  std::vector<Gva> dirty;
  u64 truth_pages = 0;
};

/// The same multi-tenant experiment either serially or on a worker pool:
/// every VM runs a tracked writer workload with periodic collections.
std::vector<TenantOutcome> run_fleet(unsigned vms, unsigned threads,
                                     lib::Technique tech = lib::Technique::kEpml) {
  lib::TestBedOptions opts;
  opts.tenant_vms = vms;
  opts.vm_mem_bytes = 64 * kMiB;
  opts.host_mem_bytes = 2 * kGiB;
  lib::TestBed bed(opts);
  std::vector<TenantOutcome> out(vms);
  bed.run_tenants(
      [&](unsigned i) {
        guest::GuestKernel& k = bed.kernel(i);
        guest::Process& proc = k.create_process();
        const u64 pages = 96 + i * 16;  // distinct per-VM working sets
        const Gva base = proc.mmap(pages * kPageSize);
        auto tracker = lib::make_tracker(tech, k, proc);
        lib::RunOptions ropts;
        ropts.collect_period = msecs(1);
        std::vector<Gva> dirty;
        ropts.on_collected = [&](const std::vector<Gva>& pages_seen) {
          dirty.insert(dirty.end(), pages_seen.begin(), pages_seen.end());
        };
        const lib::RunResult r = lib::run_tracked(
            k, proc,
            [&](guest::Process& p) {
              for (int pass = 0; pass < 3; ++pass) {
                for (u64 j = 0; j < pages; ++j) p.touch_write(base + j * kPageSize);
              }
            },
            tracker.get(), ropts);
        tracker->shutdown();
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        out[i].clock_us = k.ctx().clock.now().count();
        out[i].counters = k.ctx().counters;
        out[i].dirty = std::move(dirty);
        out[i].truth_pages = r.truth_pages;
      },
      threads);
  return out;
}

TEST(ParallelTenants, SerialAndParallelRunsAreBitIdentical) {
  constexpr unsigned kVms = 4;
  const std::vector<TenantOutcome> serial = run_fleet(kVms, 1);
  const std::vector<TenantOutcome> parallel = run_fleet(kVms, kVms);
  ASSERT_EQ(serial.size(), parallel.size());
  for (unsigned i = 0; i < kVms; ++i) {
    SCOPED_TRACE("vm " + std::to_string(i));
    // Bit-identical virtual clocks: not approximate — the timelines share
    // no mutable state, so the interleaving cannot influence them.
    EXPECT_EQ(serial[i].clock_us, parallel[i].clock_us);
    EXPECT_TRUE(serial[i].counters == parallel[i].counters);
    EXPECT_EQ(serial[i].dirty, parallel[i].dirty);
    EXPECT_EQ(serial[i].truth_pages, parallel[i].truth_pages);
    EXPECT_GT(serial[i].dirty.size(), 0u);
  }
  // Different working-set sizes must yield different timelines — guard
  // against the comparison passing because everything is trivially zero.
  EXPECT_NE(serial[0].clock_us, serial[kVms - 1].clock_us);
}

TEST(ParallelTenants, EveryTrackerBackendIsDeterministic) {
  // The page-track refactor's pinning test: for every DirtyTracker backend
  // the per-VM virtual timeline — clock, counters, dirty set — must be
  // bit-identical between serial and parallel execution. Any notifier whose
  // dispatch order or cost attribution depended on host-side state would
  // break this.
  for (const lib::Technique tech :
       {lib::Technique::kProc, lib::Technique::kUfd, lib::Technique::kSpml,
        lib::Technique::kEpml, lib::Technique::kWp, lib::Technique::kOracle}) {
    SCOPED_TRACE(std::string(lib::technique_name(tech)));
    const std::vector<TenantOutcome> serial = run_fleet(2, 1, tech);
    const std::vector<TenantOutcome> parallel = run_fleet(2, 2, tech);
    ASSERT_EQ(serial.size(), parallel.size());
    for (unsigned i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("vm " + std::to_string(i));
      EXPECT_EQ(serial[i].clock_us, parallel[i].clock_us);
      EXPECT_TRUE(serial[i].counters == parallel[i].counters);
      EXPECT_EQ(serial[i].dirty, parallel[i].dirty);
      EXPECT_GT(serial[i].dirty.size(), 0u);
    }
  }
}

TEST(ParallelTenants, PerVmTimelineIndependentOfFleetSize) {
  // The paper's Figs. 10-11 claim: adding tenants does not change a VM's
  // own cost. After the context split this is structural — VM 0's timeline
  // is the same whether it is alone or one of four.
  const std::vector<TenantOutcome> alone = run_fleet(1, 1);
  const std::vector<TenantOutcome> crowd = run_fleet(4, 4);
  EXPECT_EQ(alone[0].clock_us, crowd[0].clock_us);
  EXPECT_TRUE(alone[0].counters == crowd[0].counters);
  EXPECT_EQ(alone[0].dirty, crowd[0].dirty);
}

TEST(ParallelTenants, FailingFleetRethrowsLowestIndexTenantError) {
  // Tenants 1 and 3 both fail. Tenant 1 fails late, so on a pool tenant 3's
  // exception is raised first in real time; the rethrown one must still be
  // tenant 1's — the one the serial loop hits first — at any thread count.
  lib::TestBedOptions opts;
  opts.tenant_vms = 4;
  opts.vm_mem_bytes = 16 * kMiB;
  opts.host_mem_bytes = 256 * kMiB;
  lib::TestBed bed(opts);
  for (const unsigned threads : {1u, 4u}) {
    for (int rep = 0; rep < 4; ++rep) {
      try {
        bed.run_tenants(
            [](unsigned i) {
              if (i == 1) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                throw std::runtime_error("tenant 1 failed");
              }
              if (i == 3) throw std::runtime_error("tenant 3 failed");
            },
            threads);
        ADD_FAILURE() << "no exception surfaced at " << threads << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "tenant 1 failed") << threads << " threads";
      }
    }
  }
}

// ---- virtual-time golden pinning (hot-path refactor) ------------------------
//
// Miniature fig4/fig5/fig8/table4 scenarios whose final virtual clock and
// event-counter fingerprint are pinned to exact doubles captured before the
// access fast path was rebuilt (array TLB, walk caches, batched touches).
// Any change to the charge sequence — even a reordering of two double
// additions — shifts these values, so bit-identical figure outputs across
// the refactor are enforced here, not just eyeballed.

struct Golden {
  double clock_us = 0.0;
  u64 fingerprint = 0;
};

u64 counter_fingerprint(const EventCounters& c) {
  u64 f = 0;
  for (const Event e :
       {Event::kTlbHit, Event::kTlbMiss, Event::kGuestPtWalk, Event::kEptWalk,
        Event::kVmExit, Event::kSchedQuantum, Event::kEptDirtySet,
        Event::kContextSwitch}) {
    f = f * 1000003ull + c.get(e);
  }
  return f;
}

/// Figure 4 in miniature: the paper's array parser, tracked.
Golden golden_fig4(lib::Technique tech) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  wl::ArrayParser w(64 * kPageSize, /*passes=*/2);
  w.setup(proc);
  auto tracker = lib::make_tracker(tech, k, proc);
  lib::RunOptions ropts;
  ropts.collect_period = msecs(1);
  (void)lib::run_tracked(k, proc, w.runner(), tracker.get(), ropts);
  tracker->shutdown();
  return {k.ctx().clock.now().count(), counter_fingerprint(k.ctx().counters)};
}

/// Figure 5 in miniature: Boehm GC cycles driven by a tracking technique.
Golden golden_fig5(lib::Technique tech) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  auto w = wl::make_workload("string-match", wl::ConfigSize::kSmall, /*scale=*/4);
  gc::GcHeap heap(k, proc, 32 * kMiB, 512 * 1024);
  heap.set_technique(tech);
  heap.prepare_tracker();
  w->attach_gc(&heap);
  w->setup(proc);
  k.scheduler().enter_process(proc.pid());
  w->run(proc);
  (void)heap.collect();
  k.scheduler().exit_process(proc.pid());
  return {k.ctx().clock.now().count(), counter_fingerprint(k.ctx().counters)};
}

/// Figure 8 in miniature: pre-copy checkpoint of a running workload.
Golden golden_fig8(lib::Technique tech) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  auto w = wl::make_workload("word-count", wl::ConfigSize::kSmall, /*scale=*/4);
  w->setup(proc);
  criu::Checkpointer cp(k, tech);
  criu::CheckpointOptions opts;
  opts.precopy_period = msecs(5);
  opts.initial_full_copy = true;
  (void)cp.checkpoint_during(proc, w->runner(), opts);
  return {k.ctx().clock.now().count(), counter_fingerprint(k.ctx().counters)};
}

/// Table 4 in miniature: a tracked run whose formula inputs (N, C_x, ...)
/// come straight off the counters being fingerprinted.
Golden golden_table4() {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  auto w = wl::make_workload("matrix-multiply", wl::ConfigSize::kSmall, /*scale=*/4);
  w->setup(proc);
  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  lib::RunOptions ropts;
  ropts.collect_period = msecs(1);
  (void)lib::run_tracked(k, proc, w->runner(), tracker.get(), ropts);
  tracker->shutdown();
  return {k.ctx().clock.now().count(), counter_fingerprint(k.ctx().counters)};
}

/// Untracked baselines of the workloads whose touch loops the batched
/// access path rewrites (prefault, PCA read passes, kmeans/matmul stores).
Golden golden_baseline(std::string_view app) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  auto w = wl::make_workload(app, wl::ConfigSize::kSmall, /*scale=*/4);
  w->setup(proc);
  (void)lib::run_baseline(k, proc, w->runner());
  return {k.ctx().clock.now().count(), counter_fingerprint(k.ctx().counters)};
}

TEST(VirtualTimePinning, HotPathRefactorGoldens) {
  struct Row {
    const char* name;
    Golden got;
    double clock_us;
    u64 fingerprint;
  };
  // Captured from the pre-refactor tree (unordered_map TLB, no walk caches,
  // per-byte touch loops). These are exact doubles, not tolerances.
  const Row rows[] = {
      {"fig4/proc", golden_fig4(lib::Technique::kProc), 997.15628792595476,
       12075385063847858118u},
      {"fig4/spml", golden_fig4(lib::Technique::kSpml), 19695.954882973369,
       16278334996384382287u},
      {"fig4/epml", golden_fig4(lib::Technique::kEpml), 17484.55717153379,
       14278316996266382041u},
      {"fig5/proc", golden_fig5(lib::Technique::kProc), 58634.417018264343,
       6019011841615719738u},
      {"fig5/epml", golden_fig5(lib::Technique::kEpml), 30548.932557908873,
       8019029841669719790u},
      {"fig8/epml", golden_fig8(lib::Technique::kEpml), 88667.580108770126,
       14951706644273322265u},
      {"fig8/wp", golden_fig8(lib::Technique::kWp), 377185.33599880722,
       9279178553895953256u},
      {"table4/spml", golden_table4(), 27923.940921941998,
       11985636462792785657u},
      {"baseline/pca", golden_baseline("pca"), 1989.4689999993036,
       13317330207030855339u},
      {"baseline/kmeans", golden_baseline("kmeans"), 16609.327000067304,
       4277803004534670552u},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    EXPECT_EQ(r.got.clock_us, r.clock_us);
    EXPECT_EQ(r.got.fingerprint, r.fingerprint);
  }
}

// Batched touches are an *equivalence* claim, not just a speedup: with a
// tracker armed, touch_range must produce the same clock, the same open
// attribution bucket, the same counters, the same tracker-observed dirty set
// and the same truth log (per-page last-write sequence and truth_seq()) as
// the per-element loop it replaces. That holds across scheduler services that
// fire mid-page and flush the TLB (each must fire at the same virtual time,
// after the same number of writes), at a stride of 8 bytes (512 accesses per
// page segment), and on a second vCPU with its own clock and scheduler.
TEST(VirtualTimePinning, TouchRangeMatchesPerByteLoop) {
  struct Case {
    const char* name;
    u64 stride;
    u64 bytes;
    unsigned vcpus;
    VirtDuration period;  ///< periodic service cadence; 0 = none.
  };
  struct Result {
    double clock_us = 0.0;
    double bucket_us = 0.0;
    u64 fingerprint = 0;
    EventCounters counters;
    std::vector<Gva> dirty;
    std::vector<std::pair<Gva, u64>> truth;  ///< (page, last-write sequence)
    u64 truth_seq = 0;
    std::vector<double> fire_us;  ///< clock at each service
    std::vector<u64> fire_seq;    ///< truth_seq() at each service
  };
  // The write run starts 64 bytes into the VMA: unaligned base and a byte
  // count that is no multiple of the stride, so the batch must charge per
  // *element*, not per page.
  constexpr u64 kOffset = 64;
  const auto scenario = [](const Case& c, bool batched) {
    lib::TestBedOptions o;
    o.vcpus_per_vm = c.vcpus;
    lib::TestBed bed(o);
    guest::GuestKernel& k = bed.kernel();
    // Round-robin placement: with two vCPUs the second process runs on 1.
    if (c.vcpus > 1) (void)k.create_process();
    guest::Process& proc = k.create_process();
    EXPECT_EQ(proc.cpu(), c.vcpus - 1);
    sim::ExecContext& ctx = k.ctx_of(proc);
    guest::Scheduler& sched = k.scheduler_of(proc);
    const Gva base = proc.mmap(64 * kPageSize);
    auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
    tracker->init();
    tracker->begin_interval();
    sched.enter_process(proc.pid());

    Result r;
    if (c.period.count() > 0) {
      sched.set_periodic(c.period, [&] {
        r.fire_us.push_back(ctx.clock.now().count());
        r.fire_seq.push_back(proc.truth_seq());
        k.tlb_flush_pid(proc);
      });
    }
    VirtDuration bucket{0};
    {
      const VirtualClock::Scope scope(ctx.clock, bucket);
      if (batched) {
        proc.touch_range_write(base + kOffset, c.bytes, c.stride);
        proc.touch_range_read(base, 16 * kPageSize);
      } else {
        for (u64 off = 0; off < c.bytes; off += c.stride) proc.touch_write(base + kOffset + off);
        for (u64 off = 0; off < 16 * kPageSize; off += kPageSize) proc.touch_read(base + off);
      }
    }
    sched.clear_periodic();

    r.dirty = tracker->collect();
    sched.exit_process(proc.pid());
    tracker->shutdown();
    r.clock_us = ctx.clock.now().count();
    r.bucket_us = bucket.count();
    r.fingerprint = counter_fingerprint(ctx.counters);
    r.counters = ctx.counters;
    for (const auto& [page, seq] : proc.truth_dirty()) r.truth.emplace_back(page, seq);
    std::sort(r.truth.begin(), r.truth.end());
    r.truth_seq = proc.truth_seq();
    return r;
  };

  const Case cases[] = {
      {"stride-192", 192, 48 * kPageSize + 777, 1, VirtDuration{0}},
      {"periodic-flush", 192, 48 * kPageSize + 777, 1, usecs(1.7)},
      {"stride-8", 8, 16 * kPageSize + 100, 1, usecs(9.1)},
      {"vcpu-1", 192, 48 * kPageSize + 777, 2, usecs(1.7)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Result loop = scenario(c, /*batched=*/false);
    const Result batch = scenario(c, /*batched=*/true);
    EXPECT_EQ(batch.clock_us, loop.clock_us);
    EXPECT_EQ(batch.bucket_us, loop.bucket_us);
    EXPECT_EQ(batch.fingerprint, loop.fingerprint);
    EXPECT_TRUE(batch.counters == loop.counters);
    EXPECT_EQ(batch.dirty, loop.dirty);
    EXPECT_EQ(batch.truth, loop.truth);
    EXPECT_EQ(batch.truth_seq, loop.truth_seq);
    EXPECT_EQ(batch.fire_us, loop.fire_us);
    EXPECT_EQ(batch.fire_seq, loop.fire_seq);

    const u64 n = (c.bytes + c.stride - 1) / c.stride;
    EXPECT_EQ(loop.truth_seq, n);
    EXPECT_GT(loop.bucket_us, 0.0);
    EXPECT_FALSE(loop.dirty.empty());
    if (c.period.count() == 0) continue;
    // The service must have split at least one page segment: after `seq`
    // writes, the next write falls on the same page as the last one.
    const auto mid_page = [&](u64 seq) {
      const auto page = [&](u64 i) { return page_floor(kOffset + i * c.stride); };
      return seq > 0 && seq < n && page(seq - 1) == page(seq);
    };
    EXPECT_GE(loop.fire_seq.size(), 3u);
    EXPECT_TRUE(std::any_of(loop.fire_seq.begin(), loop.fire_seq.end(), mid_page));
  }
}

// ---- scalar access pinning (TLB-hit fast path) -------------------------------
//
// A seeded mix of write_u64 / read_u64 / touch_read / touch_write /
// touch_range under a small quantum and a periodic collection service, with
// clear_refs, munmap and a migrate_process to the second vCPU partway
// through. The final clock bits of both vCPUs, a hash of every event counter
// on each, and the truth ledger are pinned to constants captured before the
// scalar TLB-hit path was served inline: any change to a hit/miss sequence,
// a charge order or a scheduler tick moves at least one of them.

u64 mix_hash(u64 h, u64 v) noexcept { return (h ^ v) * 0x100000001b3ull; }

struct ScalarMixPin {
  u64 clock_bits[2];
  u64 counter_hash[2];
  u64 tlb_hit;   ///< summed over both vCPUs.
  u64 tlb_miss;  ///< summed over both vCPUs.
  u64 truth_hash;
  u64 truth_size;
  u64 truth_seq;
  u64 read_sum;  ///< xor of every read_u64 result.
};

ScalarMixPin scalar_access_mix(lib::Technique tech) {
  lib::TestBedOptions o;
  o.vcpus_per_vm = 2;
  o.vm_mem_bytes = 64 * kMiB;
  o.host_mem_bytes = 256 * kMiB;
  o.sched_quantum = usecs(20);
  lib::TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  constexpr u64 kDataPages = 96;
  constexpr u64 kMetaPages = 64;
  const Gva data = proc.mmap(kDataPages * kPageSize, /*data_backed=*/true);
  const Gva meta = proc.mmap(kMetaPages * kPageSize);
  const Gva spare = proc.mmap(16 * kPageSize);
  bool spare_mapped = true;

  // A tracker session per vCPU, the migration between them (sessions that
  // live across a migration: SmpTracker.SessionsSurviveMigrateProcess).
  std::unique_ptr<lib::DirtyTracker> tracker;
  u64 collected = 0;
  const auto service = [&] {
    collected += tracker->collect().size();
    tracker->begin_interval();
  };
  const auto start_session = [&] {
    tracker = lib::make_tracker(tech, k, proc);
    tracker->init();
    tracker->begin_interval();
    k.scheduler_of(proc).set_periodic(msecs(1), service);
    k.scheduler_of(proc).enter_process(proc.pid());
  };
  const auto end_session = [&] {
    k.scheduler_of(proc).clear_periodic();
    k.scheduler_of(proc).exit_process(proc.pid());
    collected += tracker->collect().size();
    tracker->shutdown();
  };

  ScalarMixPin pin{};
  Rng rng(0x5ca1a7);
  constexpr int kOps = 40000;
  start_session();
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 4) k.procfs().clear_refs(proc);
    if (i == kOps / 2) {
      end_session();
      k.migrate_process(proc, 1);
      start_session();
    }
    if (i == 3 * kOps / 4) {
      proc.munmap(spare);  // shoots down the stale vCPU 0 entries too
      spare_mapped = false;
    }
    const u64 r = rng.below(100);
    const Gva d = data + rng.below(kDataPages * kPageSize / 8) * 8;
    const Gva m = meta + rng.below(kMetaPages * kPageSize);
    if (r < 30) {
      proc.write_u64(d, rng.next());
    } else if (r < 50) {
      pin.read_sum ^= proc.read_u64(d);
    } else if (r < 65) {
      proc.touch_write(m);
    } else if (r < 80) {
      proc.touch_read(rng.below(2) == 0 ? m : d);
    } else if (r < 88) {
      constexpr u64 kStrides[] = {8, 64, 192, kPageSize};
      const u64 stride = kStrides[rng.below(4)];
      const u64 off = rng.below((kMetaPages - 3) * kPageSize);
      proc.touch_range(meta + off, 1 + rng.below(3 * kPageSize), rng.below(2) == 0, stride);
    } else if (spare_mapped) {
      proc.touch_write(spare + rng.below(16 * kPageSize));
    } else {
      proc.touch_read(m);
    }
  }
  end_session();
  EXPECT_GT(collected, 0u);
  for (unsigned cpu = 0; cpu < 2; ++cpu) {
    const sim::ExecContext& ctx = k.vm().vcpu(cpu).ctx();
    pin.clock_bits[cpu] = std::bit_cast<u64>(ctx.clock.now().count());
    u64 h = 0xcbf29ce484222325ull;
    for (std::size_t e = 0; e < kEventCount; ++e) h = mix_hash(h, ctx.counters.get(Event(e)));
    pin.counter_hash[cpu] = h;
    pin.tlb_hit += ctx.counters.get(Event::kTlbHit);
    pin.tlb_miss += ctx.counters.get(Event::kTlbMiss);
  }
  pin.truth_hash = 0xcbf29ce484222325ull;
  for (const auto& [page, seq] : proc.truth_dirty()) {
    pin.truth_hash = mix_hash(mix_hash(pin.truth_hash, page), seq);
  }
  pin.truth_size = proc.truth_dirty().size();
  pin.truth_seq = proc.truth_seq();
  return pin;
}

void expect_scalar_mix(lib::Technique tech, const ScalarMixPin& want) {
  const ScalarMixPin got = scalar_access_mix(tech);
  EXPECT_EQ(got.clock_bits[0], want.clock_bits[0]);
  EXPECT_EQ(got.clock_bits[1], want.clock_bits[1]);
  EXPECT_EQ(got.counter_hash[0], want.counter_hash[0]);
  EXPECT_EQ(got.counter_hash[1], want.counter_hash[1]);
  EXPECT_EQ(got.tlb_hit, want.tlb_hit);
  EXPECT_EQ(got.tlb_miss, want.tlb_miss);
  EXPECT_EQ(got.truth_hash, want.truth_hash);
  EXPECT_EQ(got.truth_size, want.truth_size);
  EXPECT_EQ(got.truth_seq, want.truth_seq);
  EXPECT_EQ(got.read_sum, want.read_sum);
  // Mostly hits, as in gc_churn, but with misses enough to matter.
  EXPECT_GT(got.tlb_hit, 10 * got.tlb_miss);
  EXPECT_GT(got.tlb_miss, 500u);
  // Print the observed pin, in initializer form, to make a deliberate
  // re-baseline a copy and paste.
  if (::testing::Test::HasFailure()) {
    std::printf("{{0x%016llxull, 0x%016llxull}, {0x%016llxull, 0x%016llxull}, %llu, %llu,\n"
                " 0x%016llxull, %llu, %llu, 0x%016llxull}\n",
                static_cast<unsigned long long>(got.clock_bits[0]),
                static_cast<unsigned long long>(got.clock_bits[1]),
                static_cast<unsigned long long>(got.counter_hash[0]),
                static_cast<unsigned long long>(got.counter_hash[1]),
                static_cast<unsigned long long>(got.tlb_hit),
                static_cast<unsigned long long>(got.tlb_miss),
                static_cast<unsigned long long>(got.truth_hash),
                static_cast<unsigned long long>(got.truth_size),
                static_cast<unsigned long long>(got.truth_seq),
                static_cast<unsigned long long>(got.read_sum));
  }
}

TEST(VirtualTimePinning, ScalarAccessMixProc) {
  expect_scalar_mix(lib::Technique::kProc,
                    {{0x40fb9515c652f520ull, 0x40fafb2a73286e7aull},
                     {0x078acd904fdae2a9ull, 0x3fb80ba6d0bccb9aull}, 765797, 30930,
                     0xfecd516a9bb3be34ull, 160, 363424, 0x91339d2cc9bda423ull});
}

TEST(VirtualTimePinning, ScalarAccessMixSpml) {
  expect_scalar_mix(lib::Technique::kSpml,
                    {{0x410611cf98878d2full, 0x410634e51cb1ee28ull},
                     {0xc7a3e2fd03622a4aull, 0xe272a65f2a22694aull}, 754738, 30059,
                     0xfecd516a9bb3be34ull, 160, 363424, 0x91339d2cc9bda423ull});
}

TEST(VirtualTimePinning, ScalarAccessMixEpml) {
  expect_scalar_mix(lib::Technique::kEpml,
                    {{0x40f08e76b5a5c30cull, 0x40f297d8ebf2876bull},
                     {0xa7a604475802a6c8ull, 0xce34367f84fe5978ull}, 766203, 18594,
                     0xfecd516a9bb3be34ull, 160, 363424, 0x91339d2cc9bda423ull});
}

TEST(VirtualTimePinning, ScalarAccessMixWp) {
  expect_scalar_mix(lib::Technique::kWp,
                    {{0x40f14781fab38a08ull, 0x40f108ec51eabbcfull},
                     {0xa0eda8f5819c4f12ull, 0x9e6bb276f52a79acull}, 760730, 24067,
                     0xfecd516a9bb3be34ull, 160, 363424, 0x91339d2cc9bda423ull});
}

// An SPML session beside a pre-copy migration on a 2-vCPU guest with huge,
// eagerly split EPT backing: the two kPmlDrain consumers share vCPU 0's PML
// buffer (paper §IV-C) while vCPU 1 scans inside the TLB's reach. Each
// vCPU's clock and counters, the migration report and the collected pages
// are pinned to constants captured before the drain moved GPAs in bulk.
TEST(VirtualTimePinning, SpmlSessionBesideMigration) {
  lib::TestBedOptions o;
  o.vcpus_per_vm = 2;
  o.vm_mem_bytes = 64 * kMiB;
  o.host_mem_bytes = 256 * kMiB;
  o.ept_huge = true;
  o.eager_split = true;
  lib::TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& writer = k.create_process();  // vCPU 0
  guest::Process& reader = k.create_process();  // vCPU 1
  ASSERT_EQ(writer.cpu(), 0u);
  ASSERT_EQ(reader.cpu(), 1u);
  constexpr u64 kReaderBytes = 4 * kMiB;
  constexpr u64 kWriterPages = 1024;
  const Gva rbase = reader.mmap(kReaderBytes);
  const Gva wbase = writer.mmap(kWriterPages * kPageSize);
  reader.touch_range_write(rbase, kReaderBytes);
  writer.touch_range_write(wbase, kWriterPages * kPageSize);
  ASSERT_GT(bed.vm().ept().huge_leaves(), 0u);

  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, writer);
  tracker->init();
  tracker->begin_interval();
  k.scheduler(0).enter_process(writer.pid());
  writer.touch_range_write(wbase, kWriterPages * kPageSize);
  k.scheduler(0).exit_process(writer.pid());
  (void)tracker->collect();
  tracker->begin_interval();
  writer.truth_reset();

  // A seeded hot set, hottest first; each round writes the hotter half.
  std::vector<u64> hot(kWriterPages);
  for (u64 i = 0; i < kWriterPages; ++i) hot[i] = i;
  Rng rng(0x5b11);
  for (u64 i = 0; i < kWriterPages; ++i) std::swap(hot[i], hot[i + rng.below(kWriterPages - i)]);
  unsigned round = 0;
  hv::MigrationEngine engine(bed.hypervisor());
  const hv::MigrationReport rep = engine.migrate(bed.vm(), [&] {
    k.scheduler(1).enter_process(reader.pid());
    reader.touch_range_read(rbase, 3 * kMiB, 64);
    k.scheduler(1).exit_process(reader.pid());
    k.scheduler(0).enter_process(writer.pid());
    const u64 n = std::max<u64>(700 >> std::min(round, 63u), 1);
    for (u64 i = 0; i < n; ++i) writer.touch_write(wbase + hot[i] * kPageSize);
    k.scheduler(0).exit_process(writer.pid());
    ++round;
  });
  const std::vector<Gva> collected = tracker->collect();
  tracker->begin_interval();
  ASSERT_TRUE(std::is_sorted(collected.begin(), collected.end()));
  for (const auto& [page, seq] : writer.truth_dirty()) {
    EXPECT_TRUE(std::binary_search(collected.begin(), collected.end(), page));
  }
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(tracker->dropped(), 0u);

  u64 got[12] = {};
  for (unsigned cpu = 0; cpu < 2; ++cpu) {
    const sim::ExecContext& ctx = bed.vm().vcpu(cpu).ctx();
    got[cpu] = std::bit_cast<u64>(ctx.clock.now().count());
    u64 h = 0xcbf29ce484222325ull;
    for (std::size_t e = 0; e < kEventCount; ++e) h = mix_hash(h, ctx.counters.get(Event(e)));
    got[2 + cpu] = h;
  }
  got[4] = rep.rounds;
  got[5] = rep.pages_sent;
  got[6] = rep.initial_pages;
  got[7] = rep.stop_copy_pages;
  got[8] = std::bit_cast<u64>(rep.total_time.count());
  got[9] = std::bit_cast<u64>(rep.downtime.count());
  got[10] = collected.size();
  got[11] = 0xcbf29ce484222325ull;
  for (const Gva page : collected) got[11] = mix_hash(got[11], page);

  const u64 want[12] = {0x40ec179f972a0f5aull, 0x40daa08c28f57f81ull,  // clocks
                        0x7e7ae3e43898a0bbull, 0x3eb88c9c82805b64ull,  // counters
                        5, 3915, 2560, 43,  // rounds, sent, initial, stop-copy
                        0x40cfe24b52407594ull, 0x4065800000000000ull,  // total, downtime
                        700, 0x9e41facd7b2e4e55ull};                   // collected
  for (std::size_t i = 0; i < std::size(want); ++i) EXPECT_EQ(got[i], want[i]) << "field " << i;
  if (::testing::Test::HasFailure()) {
    for (const u64 v : got) std::printf("0x%016llxull, ", static_cast<unsigned long long>(v));
    std::printf("\n");
  }
}

// ---- scheduler quantum-after-service fix ------------------------------------

TEST(SchedulerQuantum, DeadlineExpiringDuringServiceStillTicks) {
  lib::TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  guest::Scheduler& sched = k.scheduler();
  sim::ExecContext& ctx = k.ctx();

  // Quantum 10ms; a 1ms-period service that burns 20ms of virtual time, so
  // the quantum deadline always expires inside the service window.
  sched.set_quantum(msecs(10));
  bool fired = false;
  sched.set_periodic(msecs(1), [&] {
    fired = true;
    ctx.charge_us(20'000);
  });
  sched.enter_process(proc.pid());
  for (int i = 0; i < 100000 && !fired; ++i) {
    proc.touch_write(base + (i % 8) * kPageSize);
  }
  ASSERT_TRUE(fired) << "periodic service never ran";
  EXPECT_GE(ctx.counters.get(Event::kSchedQuantum), 1u)
      << "a quantum expiring during the service window must still count "
         "(Formula 4's N term)";
  sched.clear_periodic();
  sched.exit_process(proc.pid());
}

}  // namespace
}  // namespace ooh

// migrate_scan: pre-copy live migration (PML's original consumer) of a
// 2-vCPU guest whose EPT is backed by 2 MiB leaves, split eagerly when
// logging starts, while an in-guest SPML session on the writer process stays
// alive, so enabled_by_guest and enabled_by_hyp share one PML buffer.
//
// One operation is one MigrationEngine::migrate followed by the SPML
// session's collect and begin_interval. Each guest quantum is read-dominated:
// a reader re-scans a region inside the TLB's reach (the TLB-hit fast path)
// and a writer dirties a seeded hot set that halves round by round, so
// pre-copy converges.
#include <algorithm>
#include <memory>
#include <numeric>

#include "base/rng.hpp"
#include "harness.hpp"
#include "hypervisor/migration.hpp"
#include "ooh/tracker.hpp"

namespace perfbench {
namespace {

using namespace ooh;

constexpr u64 kReaderBytes = 4 * kMiB;  ///< each quantum scans 3..4 MiB of it.
constexpr u64 kReadStride = 64;
constexpr u64 kWriterPages = 4096;
constexpr u64 kHotPagesMin = 1536;  ///< the first round's hot set: 1536..2559 pages.
constexpr u64 kHotPagesSpread = 1024;

}  // namespace

void run_migrate_scan(const Options& opts, Pass& pass) {
  Tracer& tr = pass.tracer();
  Rng rng(opts.seed);
  std::unique_ptr<lib::TestBed> bed;
  guest::Process* reader = nullptr;
  guest::Process* writer = nullptr;
  Gva reader_base = 0;
  Gva writer_base = 0;
  std::unique_ptr<lib::DirtyTracker> tracker;

  pass.setup([&] {
    {
      const Tracer::Span span(tr, "hypervisor.testbed_build");
      lib::TestBedOptions o;
      o.vcpus_per_vm = 2;
      o.ept_huge = true;
      o.eager_split = true;
      bed = std::make_unique<lib::TestBed>(o);
    }
    {
      // Placement is round-robin: the writer runs on vCPU 0, the reader on 1.
      // The tracker attributes its phase times on vCPU 0's clock, so the
      // tracked writer must run there for ooh.virt_* to see them.
      const Tracer::Span span(tr, "guest.prefault");
      writer = &bed->kernel().create_process();
      reader = &bed->kernel().create_process();
      reader_base = reader->mmap(kReaderBytes);
      writer_base = writer->mmap(kWriterPages * kPageSize);
      reader->touch_range_write(reader_base, kReaderBytes);
      writer->touch_range_write(writer_base, kWriterPages * kPageSize);
    }
    const Tracer::Span span(tr, "ooh.tracker_init");
    tracker = lib::make_tracker(lib::Technique::kSpml, bed->kernel(), *writer);
    tracker->init();
    tracker->begin_interval();
    // One interval over every writer page fills SPML's reverse-map cache, so
    // no timed collect pays the one-off pagemap scan for a page it has not
    // seen yet.
    guest::Scheduler& sched = bed->kernel().scheduler(writer->cpu());
    sched.enter_process(writer->pid());
    writer->touch_range_write(writer_base, kWriterPages * kPageSize);
    sched.exit_process(writer->pid());
    (void)tracker->collect();
    tracker->begin_interval();
    writer->truth_reset();
  });

  guest::GuestKernel& kernel = bed->kernel();
  hv::MigrationEngine engine(bed->hypervisor());
  std::vector<u64> hot(kWriterPages);
  std::vector<Gva> collected;
  pass.begin_timed(*bed);
  for (u64 i = 0; i < opts.size; ++i) {
    // This migration's hot set, hottest first: a seeded shuffle of the pages.
    const u64 hot_pages = kHotPagesMin + rng.below(kHotPagesSpread);
    const u64 scan_bytes = kReaderBytes - rng.below(kReaderBytes / 4 / kPageSize + 1) * kPageSize;
    std::iota(hot.begin(), hot.end(), u64{0});
    for (u64 k = 0; k < hot_pages; ++k) std::swap(hot[k], hot[k + rng.below(kWriterPages - k)]);

    hv::MigrationReport rep;
    const lib::Phases before = tracker->phases();
    pass.op([&] {
      unsigned round = 0;
      {
        const Tracer::Span span(tr, "hypervisor.migrate");
        rep = engine.migrate(bed->vm(), [&] {
          const Tracer::Span access(tr, "guest.access");
          kernel.scheduler(reader->cpu()).enter_process(reader->pid());
          reader->touch_range_read(reader_base, scan_bytes, kReadStride);
          kernel.scheduler(reader->cpu()).exit_process(reader->pid());
          kernel.scheduler(writer->cpu()).enter_process(writer->pid());
          const u64 n = std::max<u64>(hot_pages >> std::min(round, 63u), 1);
          for (u64 k = 0; k < n; ++k) writer->touch_write(writer_base + hot[k] * kPageSize);
          kernel.scheduler(writer->cpu()).exit_process(writer->pid());
          ++round;
        });
      }
      {
        const Tracer::Span span(tr, "ooh.collect");
        collected = tracker->collect();
      }
      const Tracer::Span span(tr, "ooh.arm");
      tracker->begin_interval();
    });

    // The coexisting session saw every page the writer dirtied and lost none.
    std::sort(collected.begin(), collected.end());
    bool ok = !rep.aborted && tracker->dropped() == 0;
    for (const auto& [page, seq] : writer->truth_dirty()) {
      ok = ok && std::binary_search(collected.begin(), collected.end(), page);
    }
    if (!ok) pass.fail();
    const lib::Phases& after = tracker->phases();
    pass.add("ooh.collected_pages", static_cast<double>(collected.size()));
    pass.add("ooh.truth_pages", static_cast<double>(writer->truth_dirty().size()));
    pass.add("ooh.virt_collect_ms", to_ms(after.collect - before.collect));
    pass.add("ooh.virt_arm_ms", to_ms(after.arm - before.arm));
    pass.add("hypervisor.downtime_virt_ms", to_ms(rep.downtime));
    writer->truth_reset();

    pass.digest().mix(u64{rep.rounds});
    pass.digest().mix(rep.pages_sent);
    pass.digest().mix(rep.initial_pages);
    pass.digest().mix(rep.stop_copy_pages);
    pass.digest().mix(u64{rep.converged});
    pass.digest().mix(rep.total_time.count());
    pass.digest().mix(rep.downtime.count());
    pass.digest().mix(u64{collected.size()});
  }
  pass.end_timed(*bed);
  tracker->shutdown();
}

}  // namespace perfbench

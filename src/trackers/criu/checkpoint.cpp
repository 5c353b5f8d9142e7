#include "trackers/criu/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "base/clock.hpp"

namespace ooh::criu {

void Checkpointer::dump_pages(guest::Process& proc, const std::vector<Gva>& pages,
                              CheckpointImage& image) {
  sim::ExecContext& m = kernel_.ctx();
  sim::GuestPageTable& pt = kernel_.page_table(proc);
  for (const Gva gva : pages) {
    const sim::Pte* pte = pt.pte(gva);
    if (pte == nullptr || !pte->present) continue;  // unmapped since logging
    const u8* data = nullptr;
    const guest::Vma* vma = proc.vma_of(gva);
    if (vma != nullptr && vma->data_backed) {
      Hpa hpa = 0;
      if (kernel_.vm().ept().translate(pte->gpa_page, hpa)) {
        data = m.pmem.frame_data_if_present(hpa);
      }
    }
    // Overwrite the slot in place: a re-dumped page reuses its buffer.
    std::vector<u8>& content = image.pages[page_floor(gva)];
    if (data != nullptr) {
      content.assign(data, data + kPageSize);
    } else {
      content.clear();  // empty = all-zero page
    }
    ++image.dump_ops;
    m.count(Event::kDiskPageWrite);
    m.charge_us(m.cost.disk_write_page_us);
  }
}

CheckpointImage Checkpointer::full_checkpoint(guest::Process& proc) {
  CheckpointImage image;
  for (const guest::Vma& vma : proc.vmas()) {
    image.vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }
  std::vector<Gva> pages;
  kernel_.page_table(proc).for_each_present(
      [&](Gva gva, sim::Pte&) { pages.push_back(gva); });
  dump_pages(proc, pages, image);
  return image;
}

CheckpointResult Checkpointer::checkpoint_during(guest::Process& proc,
                                                 const lib::WorkloadFn& workload,
                                                 const CheckpointOptions& opts) {
  sim::ExecContext& m = kernel_.ctx();
  CheckpointResult res;
  for (const guest::Vma& vma : proc.vmas()) {
    res.image.vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }

  auto tracker = lib::make_tracker(technique_, kernel_, proc);

  lib::RunOptions ropts;
  ropts.collect_period = opts.precopy_period;
  ropts.final_collect = false;  // the final dump below is the MD phase
  ropts.on_collected = [&](const std::vector<Gva>& pages) {
    // Pre-copy round: dump this interval's dirty pages while running.
    VirtualClock::Scope s(m.clock, res.phases.precopy);
    dump_pages(proc, pages, res.image);
  };

  if (opts.initial_full_copy) {
    // CRIU's first pre-dump: copy everything present before the run. Pages
    // the workload then modifies are stale in the image until the dirty
    // dumps below refresh them -- image correctness therefore *depends* on
    // the tracker's completeness, as it does in real incremental CRIU.
    VirtualClock::Scope s(m.clock, res.phases.precopy);
    std::vector<Gva> all;
    kernel_.page_table(proc).for_each_present(
        [&](Gva gva, sim::Pte&) { all.push_back(gva); });
    res.full_copy_pages = all.size();
    dump_pages(proc, all, res.image);
  }

  res.run = lib::run_tracked(kernel_, proc, workload, tracker.get(), ropts);

  // Final checkpoint: the process is paused (it already finished its run).
  std::vector<Gva> dirty;
  if (technique_ == lib::Technique::kProc) {
    // /proc fuses collection into the write phase: CRIU walks the pagemap
    // and dumps pages as it finds them, so MW carries the scan cost (Fig 7).
    VirtualClock::Scope mw(m.clock, res.phases.mw);
    dirty = tracker->collect();
    dump_pages(proc, dirty, res.image);
  } else {
    {
      VirtualClock::Scope md(m.clock, res.phases.md);
      dirty = tracker->collect();
    }
    VirtualClock::Scope mw(m.clock, res.phases.mw);
    dump_pages(proc, dirty, res.image);
  }
  res.final_dirty_pages = dirty.size();
  res.phases.init = tracker->phases().init;
  tracker->shutdown();
  return res;
}

IncrementalSession::IncrementalSession(guest::GuestKernel& kernel,
                                       lib::Technique technique, guest::Process& proc)
    : kernel_(kernel), proc_(proc), checkpointer_(kernel, technique) {
  tracker_ = lib::make_tracker(technique, kernel_, proc_);
  tracker_->init();
  tracker_->begin_interval();
  for (const guest::Vma& vma : proc_.vmas()) {
    image_.vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }
  std::vector<Gva> all;
  kernel_.page_table(proc_).for_each_present(
      [&](Gva gva, sim::Pte&) { all.push_back(gva); });
  full_copy_pages_ = all.size();
  checkpointer_.dump_pages(proc_, all, image_);
}

IncrementalSession::~IncrementalSession() {
  tracker_->shutdown();
}

IncrementalSession::StepResult IncrementalSession::step(const lib::WorkloadFn& slice) {
  sim::ExecContext& m = kernel_.ctx();
  StepResult res;
  guest::Scheduler& sched = kernel_.scheduler();

  const VirtDuration run_start = m.clock.now();
  sched.enter_process(proc_.pid());
  slice(proc_);
  sched.exit_process(proc_.pid());
  res.run_time = m.clock.now() - run_start;

  const VirtDuration dump_start = m.clock.now();
  // The slice may have mapped new VMAs; refresh the layout record.
  image_.vmas.clear();
  for (const guest::Vma& vma : proc_.vmas()) {
    image_.vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }
  const std::vector<Gva> dirty = tracker_->collect();
  tracker_->begin_interval();
  checkpointer_.dump_pages(proc_, dirty, image_);
  res.dump_time = m.clock.now() - dump_start;
  res.dirty_pages = dirty.size();
  ++steps_;
  return res;
}

void restore(guest::Process& proc, const CheckpointImage& image) {
  if (!proc.vmas().empty()) {
    throw std::invalid_argument("restore target process must be fresh");
  }
  for (const CheckpointImage::VmaRecord& rec : image.vmas) {
    const Gva got = proc.mmap(rec.bytes, rec.data_backed);
    if (got != rec.start) {
      throw std::runtime_error("restore could not reproduce the VMA layout");
    }
  }
  // Ascending GVA, not the hash map's order: the restore's faults, TLB fills
  // and virtual time must not depend on the standard library.
  using Page = decltype(image.pages)::value_type;
  std::vector<const Page*> pages;
  pages.reserve(image.pages.size());
  for (const Page& page : image.pages) pages.push_back(&page);
  std::sort(pages.begin(), pages.end(),
            [](const Page* x, const Page* y) { return x->first < y->first; });
  for (const Page* page : pages) {
    const auto& [gva, content] = *page;
    if (content.empty()) {
      // All-zero (or metadata-only) page: touch so it exists post-restore.
      proc.touch_write(gva);
    } else {
      proc.write_bytes(gva, content);
    }
  }
}

}  // namespace ooh::criu

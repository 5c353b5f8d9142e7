#include "trackers/criu/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "base/clock.hpp"
#include "sim/check/coherence.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ooh::criu {
namespace {

constexpr u64 kLine = sim::PhysicalMemory::kLineSize;
constexpr u64 kLinesPerPage = kPageSize / kLine;

/// Copy one 64-byte line into a line-aligned image slot line with 16-byte
/// non-temporal stores: the destination line is written whole and never
/// read in, so the copy costs one streamed read and one streamed write.
/// `src` may have any alignment. The four loads go before the stores, so
/// the write-combining buffer fills whole lines. SSE2 is part of the x86-64
/// baseline; other targets memcpy.
void stream_line(u8* dst, const u8* src) noexcept {
#if defined(__SSE2__)
  auto* d = reinterpret_cast<__m128i*>(dst);
  const auto* s = reinterpret_cast<const __m128i*>(src);
  const __m128i v0 = _mm_loadu_si128(s);
  const __m128i v1 = _mm_loadu_si128(s + 1);
  const __m128i v2 = _mm_loadu_si128(s + 2);
  const __m128i v3 = _mm_loadu_si128(s + 3);
  _mm_stream_si128(d, v0);
  _mm_stream_si128(d + 1, v1);
  _mm_stream_si128(d + 2, v2);
  _mm_stream_si128(d + 3, v3);
#else
  std::memcpy(dst, src, kLine);
#endif
}

/// Copy the lines of `lines` (bit i is bytes [64i, 64i + 64)) of a page
/// into its page-aligned slot; returns how many.
u64 stream_lines(u8* dst, const u8* src, u64 lines) noexcept {
  if (lines == sim::PhysicalMemory::kAllLines) {  // a whole page: no bit scan
    for (u64 off = 0; off < kPageSize; off += kLine) stream_line(dst + off, src + off);
    return kLinesPerPage;
  }
  const auto moved = static_cast<u64>(std::popcount(lines));
  for (; lines != 0; lines &= lines - 1) {
    const u64 off = static_cast<u64>(std::countr_zero(lines)) * kLine;
    stream_line(dst + off, src + off);
  }
  return moved;
}

/// Order every streamed store before the stores that follow, so a thread
/// that is handed the image sees its bytes.
void stream_fence() noexcept {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

}  // namespace

// ---- PageStore -----------------------------------------------------------------

PageStore::value_type PageStore::const_iterator::operator*() const noexcept {
  const Region& r = store_->regions_[region_];
  const Gva gva = r.start + page_ * kPageSize;
  if (r.state[page_] == State::kZero) return {gva, {}};
  return {gva, std::span<const u8>(r.slot(page_), kPageSize)};
}

void PageStore::const_iterator::settle() noexcept {
  const std::vector<Region>& regions = store_->regions_;
  for (; region_ < regions.size(); ++region_, page_ = 0) {
    const std::vector<State>& state = regions[region_].state;
    for (; page_ < state.size(); ++page_) {
      if (state[page_] != State::kAbsent) return;
    }
  }
  page_ = 0;
}

PageStore::const_iterator PageStore::begin() const noexcept {
  const_iterator it(this, 0, 0);
  it.settle();
  return it;
}

std::size_t PageStore::region_index(Gva gva) const noexcept {
  const auto it = std::upper_bound(regions_.begin(), regions_.end(), gva,
                                   [](Gva a, const Region& r) { return a < r.start; });
  if (it == regions_.begin() || gva >= std::prev(it)->end) return regions_.size();
  return static_cast<std::size_t>(std::prev(it) - regions_.begin());
}

PageStore::const_iterator PageStore::find(Gva gva) const noexcept {
  const std::size_t i = region_index(gva);
  if (i == regions_.size() || !is_page_aligned(gva)) return end();
  const std::size_t page = page_index(gva - regions_[i].start);
  if (regions_[i].state[page] == State::kAbsent) return end();
  return {this, i, page};
}

std::span<const u8> PageStore::at(Gva gva) const {
  const const_iterator it = find(gva);
  if (it == end()) throw std::out_of_range("checkpoint image has no such page");
  return (*it).second;
}

bool PageStore::operator==(const PageStore& o) const noexcept {
  if (size() != o.size()) return false;
  for (const_iterator a = begin(), b = o.begin(); a != end(); ++a, ++b) {
    const auto [gva_a, bytes_a] = *a;
    const auto [gva_b, bytes_b] = *b;
    if (gva_a != gva_b || !std::ranges::equal(bytes_a, bytes_b)) return false;
  }
  return true;
}

void PageStore::erase_region(std::size_t i) noexcept {
  for (const State st : regions_[i].state) {
    if (st != State::kAbsent) --present_;
  }
  regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
  mru_ = 0;
}

PageStore::Region& PageStore::region_for(const guest::Vma& vma) {
  const auto matches = [&vma](const Region& r) {
    return r.start == vma.start && r.end == vma.end;
  };
  if (mru_ < regions_.size() && matches(regions_[mru_])) return regions_[mru_];
  // Regions are non-overlapping and sorted, so those overlapping the VMA are
  // one contiguous run starting at the first that ends past its start.
  auto it = std::lower_bound(regions_.begin(), regions_.end(), vma.start,
                             [](const Region& r, Gva start) { return r.end <= start; });
  if (it != regions_.end() && matches(*it)) {
    mru_ = static_cast<std::size_t>(it - regions_.begin());
    return *it;
  }
  // Any overlapping region belongs to a VMA that is gone.
  while (it != regions_.end() && it->start < vma.end) {
    const auto i = static_cast<std::size_t>(it - regions_.begin());
    erase_region(i);
    it = regions_.begin() + static_cast<std::ptrdiff_t>(i);
  }
  it = regions_.insert(it, Region{vma.start, vma.end,
                                  std::vector<State>(page_index(vma.bytes()), State::kAbsent),
                                  {}, {}});
  mru_ = static_cast<std::size_t>(it - regions_.begin());
  return *it;
}

std::pair<PageStore::Region*, std::size_t> PageStore::slot_for(const guest::Vma& vma,
                                                                Gva gva) {
  Region& r = region_for(vma);
  const std::size_t page = page_index(gva - r.start);
  if (r.state[page] == State::kAbsent) ++present_;
  return {&r, page};
}

void PageStore::store_zero(const guest::Vma& vma, Gva gva) {
  const auto [r, page] = slot_for(vma, gva);
  r->state[page] = State::kZero;
  if (!r->source.empty()) r->source[page] = 0;
}

u64 PageStore::store(const guest::Vma& vma, Gva gva, sim::PhysicalMemory& pmem, Hpa frame) {
  const auto [r, page] = slot_for(vma, gva);
  if (r->source.empty()) {
    r->source.assign(r->state.size(), 0);
    r->blocks.resize((r->state.size() + base::HostBlock::kPages - 1) / base::HostBlock::kPages);
  }
  std::uintptr_t& source = r->source[page];
  const sim::PhysicalMemory::Claim claim = pmem.claim(frame, &source);
  if (claim.bytes == nullptr) {
    r->state[page] = State::kZero;
    source = 0;
    return 0;
  }
  if (base::HostBlock& block = r->blocks[page / base::HostBlock::kPages]; !block) {
    block = base::HostBlock::take();
  }
  u8* const slot = r->slot(page);
  if (source == 0) base::asan_unpoison(slot, kPageSize);  // the slot's first data
  // The frame's mask says what changed since *this slot* copied it; the
  // slot's source says the slot still holds that copy.
  const auto bytes_id = reinterpret_cast<std::uintptr_t>(claim.bytes);
  const u64 lines = source == bytes_id ? claim.lines : sim::PhysicalMemory::kAllLines;
  source = bytes_id;
  r->state[page] = State::kData;
  return stream_lines(slot, claim.bytes, lines);
}

void PageStore::retain(const std::vector<guest::Vma>& vmas) noexcept {
  for (std::size_t i = regions_.size(); i-- > 0;) {
    const Region& r = regions_[i];
    const bool live = std::any_of(vmas.begin(), vmas.end(), [&r](const guest::Vma& v) {
      return v.start == r.start && v.end == r.end;
    });
    if (!live) erase_region(i);
  }
}

// ---- CheckpointImage -------------------------------------------------------------

void CheckpointImage::record_layout(const guest::Process& proc) {
  vmas.clear();
  for (const guest::Vma& vma : proc.vmas()) {
    vmas.push_back({vma.start, vma.bytes(), vma.data_backed});
  }
  pages.retain(proc.vmas());
}

// ---- Checkpointer ----------------------------------------------------------------

u64 Checkpointer::dump_pages(guest::Process& proc, const std::vector<Gva>& pages,
                             CheckpointImage& image) {
  sim::ExecContext& m = kernel_.ctx_of(proc);
  sim::GuestPageTable& pt = kernel_.page_table(proc);
  u64 moved = 0;
  for (const Gva gva : pages) {
    // The page's own GPA: a segment or a huge leaf shares one Pte whose
    // gpa_page is the base of its whole run.
    const sim::GuestPageTable::Lookup leaf = pt.lookup(gva);
    if (leaf.pte == nullptr || !leaf.pte->present) continue;  // unmapped since logging
    const guest::Vma* vma = proc.vma_of(gva);
    if (vma == nullptr) throw std::logic_error("dump_pages: present page outside every VMA");
    // Overwrites the page's slot in place: a re-dump reuses it.
    Hpa hpa = 0;
    if (vma->data_backed && kernel_.vm().ept().translate(leaf.gpa_page, hpa)) {
      const u64 lines = image.pages.store(*vma, page_floor(gva), m.pmem, hpa);
      moved += lines;
      if constexpr (check::kCoherenceAuditsEnabled) {
        // A partial copy (none of a frame without contents) trusts the mask.
        const u8* frame = m.pmem.frame_data_if_present(hpa);
        if (lines < kLinesPerPage && frame != nullptr) {
          audit_slot(image.pages, page_floor(gva), frame, kernel_.vm().id());
        }
      }
    } else {
      image.pages.store_zero(*vma, page_floor(gva));
    }
    ++image.dump_ops;
    m.count(Event::kDiskPageWrite);
    m.charge_us(m.cost.disk_write_page_us);
  }
  // One fence per dump, not per page: the image is complete and visible to
  // any thread it is handed to (the run_cells workers).
  stream_fence();
  return moved;
}

void audit_slot(const PageStore& pages, Gva gva, const u8* frame, u32 vm) {
  const std::span<const u8> slot = pages.at(gva);
  std::string actual;
  if (frame == nullptr) {
    actual = "the frame has no contents";
  } else if (slot.empty()) {
    actual = "the slot is a zero page";
  } else if (const auto diff = std::mismatch(slot.begin(), slot.end(), frame).first;
             diff != slot.end()) {
    actual = "bytes differ from offset " + std::to_string(diff - slot.begin());
  }
  if (!actual.empty()) {
    throw check::InvariantViolation("IMG-1", check::Layer::kCheckpointImage, vm, gva,
                                    check::kNoAddr, "the slot holds the frame's bytes",
                                    actual);
  }
}

CheckpointImage Checkpointer::full_checkpoint(guest::Process& proc) {
  CheckpointImage image;
  image.record_layout(proc);
  std::vector<Gva> pages;
  kernel_.page_table(proc).for_each_present(
      [&](Gva gva, sim::Pte&) { pages.push_back(gva); });
  dump_pages(proc, pages, image);
  return image;
}

CheckpointResult Checkpointer::checkpoint_during(guest::Process& proc,
                                                 const lib::WorkloadFn& workload,
                                                 const CheckpointOptions& opts) {
  sim::ExecContext& m = kernel_.ctx_of(proc);
  CheckpointResult res;
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
  // The run may have mapped or unmapped VMAs; the image records the layout
  // the final dump sees.
  res.image.record_layout(proc);
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
  image_.record_layout(proc_);
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
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  StepResult res;
  guest::Scheduler& sched = kernel_.scheduler_of(proc_);

  const VirtDuration run_start = m.clock.now();
  sched.enter_process(proc_.pid());
  slice(proc_);
  sched.exit_process(proc_.pid());
  res.run_time = m.clock.now() - run_start;

  const VirtDuration dump_start = m.clock.now();
  // The slice may have mapped or unmapped VMAs; refresh the layout record.
  image_.record_layout(proc_);
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
    proc.mmap_fixed(rec.start, rec.bytes, rec.data_backed);
  }
  // Ascending GVA: the restore's faults, TLB fills and virtual time depend
  // only on the image's contents.
  for (const auto& [gva, content] : image.pages) {
    if (content.empty()) {
      // All-zero (or metadata-only) page: touch so it exists post-restore.
      proc.touch_write(gva);
    } else {
      proc.write_bytes(gva, content);
    }
  }
}

}  // namespace ooh::criu

#include "trackers/boehmgc/gc.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "base/clock.hpp"

namespace ooh::gc {
namespace {

constexpr u64 kHeaderBytes = 16;
constexpr u64 kAlign = 16;

[[nodiscard]] constexpr u64 align_up(u64 v) noexcept { return (v + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

GcHeap::GcHeap(guest::GuestKernel& kernel, guest::Process& proc, u64 heap_bytes,
               u64 gc_threshold_bytes)
    : kernel_(kernel), proc_(proc), gc_threshold_(gc_threshold_bytes) {
  // Granule indices and ref-pool offsets are u32: the pool holds at most
  // two ranges per block address, i.e. one word per 4 heap bytes.
  if (heap_bytes > 16 * kGiB) throw std::invalid_argument("GC heap larger than 16 GiB");
  heap_base_ = proc_.mmap(heap_bytes);
  heap_end_ = heap_base_ + page_ceil(heap_bytes);
  bump_ = heap_base_;
}

GcHeap::~GcHeap() {
  if (tracker_) tracker_->shutdown();
}

void GcHeap::prepare_tracker() {
  if (!tracker_) {
    tracker_ = lib::make_tracker(technique_, kernel_, proc_);
    tracker_->init();
    tracker_->begin_interval();
  }
}

u32 GcHeap::find(Gva addr) const noexcept {
  if (addr < heap_base_ || addr >= bump_ || (addr - heap_base_) % kAlign != 0) return kNoSlot;
  return granule_slot_[(addr - heap_base_) / kAlign] - 1;  // 0 (none) wraps to kNoSlot
}

u32 GcHeap::live_slot(Gva addr) const {
  const u32 slot = find(addr);
  if (slot == kNoSlot) throw std::invalid_argument("not a live GC object");
  return slot;
}

std::vector<GcHeap::FreeBlock>& GcHeap::free_list(u64 size) {
  auto it = std::lower_bound(free_lists_.begin(), free_lists_.end(), size,
                             [](const FreeList& l, u64 s) { return l.size < s; });
  if (it == free_lists_.end() || it->size != size) it = free_lists_.insert(it, FreeList{size, {}});
  return it->blocks;
}

Gva GcHeap::alloc(unsigned ref_slots, u64 data_bytes) {
  // A request larger than the whole heap can never be met; checking it first
  // also keeps the size arithmetic below from wrapping.
  const u64 capacity = heap_end_ - heap_base_;
  const u64 fixed = kHeaderBytes + 8 * u64{ref_slots};
  if (fixed > capacity || data_bytes > capacity - fixed) throw std::bad_alloc{};
  const u64 size = align_up(fixed + data_bytes);
  maybe_collect();

  std::vector<FreeBlock>* list = &free_list(size);
  if (list->empty() && size > heap_end_ - bump_) {
    collect();  // emergency full attempt before giving up
    list = &free_list(size);
    if (list->empty()) throw std::bad_alloc{};
  }
  FreeBlock block;
  if (!list->empty()) {
    block = list->back();
    list->pop_back();
  } else {
    block = {bump_, static_cast<u32>(ref_pool_.size()), ref_slots};
    bump_ += size;
    granule_slot_.resize((bump_ - heap_base_) / kAlign);
    page_objects_.resize((page_ceil(bump_) - heap_base_) / kPageSize);
    ref_pool_.resize(ref_pool_.size() + ref_slots);
  }
  if (ref_slots > block.ref_cap) {
    // The block outgrew its range: give it the most fields its size can
    // hold, so each address is re-ranged at most once.
    block.ref_begin = static_cast<u32>(ref_pool_.size());
    block.ref_cap = static_cast<u32>((size - kHeaderBytes) / 8);
    ref_pool_.resize(ref_pool_.size() + block.ref_cap);
  }
  const Gva addr = block.addr;

  // Header store: makes allocation itself dirty the page, which is how new
  // objects become visible to the incremental marker.
  proc_.write_u64(addr, size);

  u32 slot = static_cast<u32>(stamp_.size());
  if (free_slots_.empty()) {
    stamp_.push_back(kUnmarked);
    addr_.push_back(addr);
    size_.push_back(size);
    refs_.push_back({block.ref_begin, ref_slots, block.ref_cap});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    stamp_[slot] = kUnmarked;
    addr_[slot] = addr;
    size_[slot] = size;
    refs_[slot] = {block.ref_begin, ref_slots, block.ref_cap};
  }
  std::fill_n(ref_pool_.begin() + block.ref_begin, ref_slots, kNoSlot);
  granule_slot_[(addr - heap_base_) / kAlign] = slot + 1;
  for (u64 page = page_floor(addr); page < addr + size; page += kPageSize) {
    ++page_objects_[(page - heap_base_) / kPageSize];
  }
  allocated_since_gc_ += size;
  live_bytes_ += size;
  stats_.total_allocated_bytes += size;
  return addr;
}

void GcHeap::add_root(Gva o) {
  const u32 slot = live_slot(o);
  const auto it = std::lower_bound(roots_.begin(), roots_.end(), slot);
  if (it == roots_.end() || *it != slot) roots_.insert(it, slot);
}

void GcHeap::remove_root(Gva o) {
  // A rooted object is live, so a root always maps back to its own slot.
  const u32 slot = find(o);
  const auto it = std::lower_bound(roots_.begin(), roots_.end(), slot);
  if (it != roots_.end() && *it == slot) roots_.erase(it);
}

void GcHeap::write_ref(Gva o, unsigned slot, Gva target) {
  const RefRange refs = refs_[live_slot(o)];
  if (slot >= refs.count) throw std::out_of_range("ref slot");
  ref_pool_[refs.begin + slot] = target == 0 ? kNoSlot : live_slot(target);
  // The pointer store is what the dirty-page techniques must observe.
  proc_.write_u64(o + kHeaderBytes + 8 * u64{slot}, target);
}

Gva GcHeap::read_ref(Gva o, unsigned slot) {
  const RefRange refs = refs_[live_slot(o)];
  if (slot >= refs.count) throw std::out_of_range("ref slot");
  proc_.touch_read(o + kHeaderBytes + 8 * u64{slot});
  const u32 target = ref_pool_[refs.begin + slot];
  return target == kNoSlot ? 0 : addr_[target];
}

void GcHeap::write_data(Gva o, u64 offset, u64 value) {
  const u32 slot = live_slot(o);
  const u64 base = kHeaderBytes + 8 * u64{refs_[slot].count};
  const u64 payload = size_[slot] - base;
  if (payload < 8 || offset > payload - 8) throw std::out_of_range("data offset");
  proc_.write_u64(o + base + offset, value);
}

void GcHeap::maybe_collect() {
  if (allocated_since_gc_ >= gc_threshold_) collect();
}

std::vector<Gva> GcHeap::acquire_dirty_pages(GcCycleStats& st) {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  VirtualClock::Scope s(m.clock, st.dirty_query);
  std::vector<Gva> dirty = tracker_->collect();
  tracker_->begin_interval();
  return dirty;
}

GcCycleStats GcHeap::collect() {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  GcCycleStats st;
  st.cycle = static_cast<unsigned>(stats_.cycles.size()) + 1;
  const VirtDuration start = m.clock.now();
  m.count(Event::kGcCycle);

  prepare_tracker();

  // ---- mark ------------------------------------------------------------------
  // Reachability is exact (host-side traversal of the current reference
  // graph). The technique determines the *cost*: a full cycle scans every
  // reachable object; an incremental cycle pays the dirty-page query plus a
  // re-scan of only the objects on dirtied pages (Boehm's mark phase).
  u64 objects_scanned = 0;
  if (!first_cycle_done_) {
    st.full = true;
    // Flush this cycle's dirty info so the next cycle starts a fresh interval.
    (void)acquire_dirty_pages(st);
  } else {
    const std::vector<Gva> dirty = acquire_dirty_pages(st);
    for (const Gva page : dirty) {
      const u64 i = (page - heap_base_) / kPageSize;
      if (page >= heap_base_ && i < page_objects_.size() && page_objects_[i] != 0) {
        ++st.pages_rescanned;
        objects_scanned += page_objects_[i];
      }
    }
    objects_scanned += roots_.size();
  }

  if (++epoch_ == 0) {  // stamp wrap: reset every live stamp once
    for (u32& stamp : stamp_) {
      if (stamp != kFreed) stamp = kUnmarked;
    }
    epoch_ = kUnmarked + 1;
  }
  // Breadth-first over raw views of the table; the frontier is sized once
  // to hold every object, so the loop neither reallocates nor reloads.
  if (frontier_.size() < stamp_.size()) frontier_.resize(stamp_.size());
  u32* const stamps = stamp_.data();
  u32* const frontier = frontier_.data();
  const RefRange* const ranges = refs_.data();
  const u32* const pool = ref_pool_.data();
  const u32 epoch = epoch_;
  u32 reached = 0;
  // write_ref admits only live targets, so a reachable object never names a
  // freed one; the freed-stamp test keeps that invariant checked for free.
  const auto mark = [&](u32 slot) {
    const u32 stamp = stamps[slot];
    if (stamp == epoch) return;
    if (stamp == kFreed) throw std::out_of_range("dangling reference to a freed object");
    stamps[slot] = epoch;
    frontier[reached++] = slot;
  };
  for (const u32 root : roots_) mark(root);
  for (const Gva local : locals_) {
    if (local == 0) continue;
    const u32 slot = find(local);
    if (slot == kNoSlot) throw std::out_of_range("dangling reference to a freed object");
    mark(slot);
  }
  for (u32 head = 0; head < reached; ++head) {
    const RefRange refs = ranges[frontier[head]];
    for (u32 i = refs.begin; i < refs.begin + refs.count; ++i) {
      if (pool[i] != kNoSlot) mark(pool[i]);
    }
  }
  if (st.full) objects_scanned = reached;
  st.objects_marked = objects_scanned;
  m.charge_ns(scan_ns_per_object_ * static_cast<double>(objects_scanned));

  // ---- sweep -----------------------------------------------------------------
  // Every live object the mark did not reach is garbage, its stamp older
  // than this epoch, so the scan reads only stamps and stops at the last
  // one. Garbage goes onto the free lists in ascending address order, so
  // reuse order depends on the heap's history alone, never on host
  // containers.
  to_free_.resize(live_objects() - reached);
  const u32 oldest_mark = epoch - kUnmarked;
  for (u32 slot = 0, found = 0; found < to_free_.size(); ++slot) {
    if (stamps[slot] - kUnmarked < oldest_mark) {
      to_free_[found++] = (addr_[slot] - heap_base_) / kAlign << 32 | slot;
    }
  }
  m.charge_ns(10.0 * static_cast<double>(live_objects()));  // block sweep
  std::sort(to_free_.begin(), to_free_.end());
  std::vector<FreeBlock>* list = nullptr;
  u64 list_size = 0;
  for (const u64 key : to_free_) {
    const u32 slot = static_cast<u32>(key);
    const Gva addr = heap_base_ + (key >> 32) * kAlign;
    const u64 size = size_[slot];
    for (u64 page = page_floor(addr); page < addr + size; page += kPageSize) {
      --page_objects_[(page - heap_base_) / kPageSize];
    }
    if (list == nullptr || list_size != size) {
      list = &free_list(size);
      list_size = size;
    }
    list->push_back({addr, refs_[slot].begin, refs_[slot].cap});
    live_bytes_ -= size;
    ++st.objects_freed;
    st.bytes_freed += size;
    granule_slot_[key >> 32] = 0;
    stamp_[slot] = kFreed;
    free_slots_.push_back(slot);
  }

  first_cycle_done_ = true;
  allocated_since_gc_ = 0;
  st.duration = m.clock.now() - start;
  stats_.total_gc_time += st.duration;
  stats_.cycles.push_back(st);
  return st;
}

}  // namespace ooh::gc

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

GcHeap::Object& GcHeap::obj(Gva addr) {
  const u32 slot = find(addr);
  if (slot == kNoSlot) throw std::invalid_argument("not a live GC object");
  return slots_[slot];
}

Gva GcHeap::alloc(unsigned ref_slots, u64 data_bytes) {
  // A request larger than the whole heap can never be met; checking it first
  // also keeps the size arithmetic below from wrapping.
  const u64 capacity = heap_end_ - heap_base_;
  const u64 fixed = kHeaderBytes + 8 * u64{ref_slots};
  if (fixed > capacity || data_bytes > capacity - fixed) throw std::bad_alloc{};
  const u64 size = align_up(fixed + data_bytes);
  maybe_collect();

  Gva addr = 0;
  if (auto it = free_lists_.find(size); it != free_lists_.end() && !it->second.empty()) {
    addr = it->second.back();
    it->second.pop_back();
  } else {
    if (size > heap_end_ - bump_) {
      collect();  // emergency full attempt before giving up
      if (auto it2 = free_lists_.find(size);
          it2 != free_lists_.end() && !it2->second.empty()) {
        addr = it2->second.back();
        it2->second.pop_back();
      } else {
        throw std::bad_alloc{};
      }
    } else {
      addr = bump_;
      bump_ += size;
      granule_slot_.resize((bump_ - heap_base_) / kAlign);
      page_objects_.resize((page_ceil(bump_) - heap_base_) / kPageSize);
    }
  }

  // Header store: makes allocation itself dirty the page, which is how new
  // objects become visible to the incremental marker.
  proc_.write_u64(addr, size);

  u32 slot = static_cast<u32>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Object& o = slots_[slot];
  o.addr = addr;
  o.size = size;
  o.refs.assign(ref_slots, 0);
  o.mark = 0;
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
  (void)obj(o);
  roots_.insert(o);
}

void GcHeap::remove_root(Gva o) {
  roots_.erase(o);
}

void GcHeap::write_ref(Gva o, unsigned slot, Gva target) {
  Object& object = obj(o);
  if (slot >= object.refs.size()) throw std::out_of_range("ref slot");
  if (target != 0) (void)obj(target);
  object.refs[slot] = target;
  // The pointer store is what the dirty-page techniques must observe.
  proc_.write_u64(o + kHeaderBytes + 8 * u64{slot}, target);
}

Gva GcHeap::read_ref(Gva o, unsigned slot) {
  Object& object = obj(o);
  if (slot >= object.refs.size()) throw std::out_of_range("ref slot");
  proc_.touch_read(o + kHeaderBytes + 8 * u64{slot});
  return object.refs[slot];
}

void GcHeap::write_data(Gva o, u64 offset, u64 value) {
  Object& object = obj(o);
  const u64 base = kHeaderBytes + 8 * object.refs.size();
  const u64 payload = object.size - base;
  if (payload < 8 || offset > payload - 8) throw std::out_of_range("data offset");
  proc_.write_u64(o + base + offset, value);
}

void GcHeap::maybe_collect() {
  if (allocated_since_gc_ >= gc_threshold_) collect();
}

std::vector<Gva> GcHeap::acquire_dirty_pages(GcCycleStats& st) {
  sim::ExecContext& m = kernel_.ctx();
  VirtualClock::Scope s(m.clock, st.dirty_query);
  std::vector<Gva> dirty = tracker_->collect();
  tracker_->begin_interval();
  return dirty;
}

void GcHeap::mark(Gva addr) {
  const u32 slot = find(addr);
  if (slot == kNoSlot) throw std::out_of_range("dangling reference to a freed object");
  if (slots_[slot].mark == epoch_) return;
  slots_[slot].mark = epoch_;
  frontier_.push_back(slot);
}

GcCycleStats GcHeap::collect() {
  sim::ExecContext& m = kernel_.ctx();
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

  if (++epoch_ == 0) {  // stamp wrap: clear every stale mark once
    for (Object& o : slots_) o.mark = 0;
    epoch_ = 1;
  }
  frontier_.clear();
  for (const Gva root : roots_) mark(root);
  for (const Gva local : locals_) {
    if (local != 0) mark(local);
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    for (const Gva ref : slots_[frontier_[head]].refs) {
      if (ref != 0) mark(ref);
    }
  }
  if (st.full) objects_scanned = frontier_.size();
  st.objects_marked = objects_scanned;
  m.charge_ns(scan_ns_per_object_ * static_cast<double>(objects_scanned));

  // ---- sweep -----------------------------------------------------------------
  // Garbage goes onto the free lists in ascending address order, so reuse
  // order depends on the heap's history alone, never on host containers.
  to_free_.clear();
  for (const Object& o : slots_) {
    if (o.size != 0 && o.mark != epoch_) to_free_.push_back(o.addr);
  }
  m.charge_ns(10.0 * static_cast<double>(live_objects()));  // block sweep
  std::sort(to_free_.begin(), to_free_.end());
  for (const Gva addr : to_free_) {
    const u32 slot = find(addr);
    Object& o = slots_[slot];
    const u64 size = o.size;
    for (u64 page = page_floor(addr); page < addr + size; page += kPageSize) {
      --page_objects_[(page - heap_base_) / kPageSize];
    }
    free_lists_[size].push_back(addr);
    live_bytes_ -= size;
    ++st.objects_freed;
    st.bytes_freed += size;
    granule_slot_[(addr - heap_base_) / kAlign] = 0;
    o.addr = 0;
    o.size = 0;
    o.refs.clear();
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

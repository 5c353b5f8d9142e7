#include "sim/phys_mem.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "base/sync.hpp"

namespace ooh::sim {

PhysicalMemory::PhysicalMemory(u64 bytes) : total_frames_(pages_for_bytes(bytes)) {
  // Frame 0 is reserved (HPA 0 doubles as "not configured" in VMCS fields,
  // as firmware does on real machines).
  // relaxed-ok: construction precedes any concurrent use.
  next_frame_.store(1, std::memory_order_relaxed);
}

Hpa PhysicalMemory::alloc_frame() {
  // Recycled frames first. The starting shard rotates so concurrent
  // allocators do not all contend on shard 0; which shard a frame comes
  // from only changes HPA values, never any virtual-time result. The rotor
  // is per-machine so HPAs stay deterministic per machine when parallel
  // cells run several machines at once.
  // relaxed-ok: the rotor only spreads contention; any stale value is a
  // valid starting shard and the shard mutex orders the actual state.
  const std::size_t home = alloc_rotor_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kShards; ++i) {
    Shard& s = shards_[(home + i) % kShards];
    sync::SpinGuard lock(s.mu);
    if (!s.free_list.empty()) {
      const u64 fn = s.free_list.back();
      s.free_list.pop_back();
      // relaxed-ok: statistics counter; the shard mutex already ordered the
      // free-list hand-off.
      used_frames_.fetch_add(1, std::memory_order_relaxed);
      return fn << kPageShift;
    }
  }
  // Fresh frame from the bump pointer.
  // relaxed-ok: the CAS loop below tolerates any stale starting value.
  u64 fn = next_frame_.load(std::memory_order_relaxed);
  while (fn < total_frames_ &&
         // relaxed-ok: the bump pointer is the only state the CAS transfers;
         // no other memory is published through it (frame contents are
         // materialised under the shard mutex).
         !next_frame_.compare_exchange_weak(fn, fn + 1, std::memory_order_relaxed)) {
  }
  if (fn >= total_frames_) throw std::bad_alloc{};
  // relaxed-ok: statistics counter, see above.
  used_frames_.fetch_add(1, std::memory_order_relaxed);
  return fn << kPageShift;
}

Hpa PhysicalMemory::alloc_frames_contiguous(u64 count) {
  assert(count > 0);
  // relaxed-ok: CAS loop tolerates a stale start, as in alloc_frame.
  u64 fn = next_frame_.load(std::memory_order_relaxed);
  while (fn + count <= total_frames_ &&
         !next_frame_.compare_exchange_weak(
             fn, fn + count,
             // relaxed-ok: bump pointer only, see alloc_frame.
             std::memory_order_relaxed)) {
  }
  if (fn + count > total_frames_) throw std::bad_alloc{};
  // relaxed-ok: statistics counter, see above.
  used_frames_.fetch_add(count, std::memory_order_relaxed);
  return fn << kPageShift;
}

void PhysicalMemory::free_frame(Hpa frame) {
  assert(is_page_aligned(frame));
  const u64 fn = page_index(frame);
  // relaxed-ok: debug sanity bound; exactness is not required.
  assert(fn < next_frame_.load(std::memory_order_relaxed));
  Shard& s = shard_of(fn);
  {
    sync::SpinGuard lock(s.mu);
    s.data.erase(fn);
    s.free_list.push_back(fn);
  }
  // relaxed-ok: debug sanity bound on a statistics counter.
  assert(used_frames_.load(std::memory_order_relaxed) > 0);
  // relaxed-ok: statistics counter; the shard mutex ordered the hand-off.
  used_frames_.fetch_sub(1, std::memory_order_relaxed);
}

u64 PhysicalMemory::backed_frames() const {
  u64 total = 0;
  for (const Shard& s : shards_) {
    sync::SpinGuard lock(s.mu);
    total += s.data.size();
  }
  return total;
}

u8* PhysicalMemory::frame_data(Hpa frame) {
  const u64 fn = page_index(frame);
  Shard& s = shard_of(fn);
  sync::SpinGuard lock(s.mu);
  auto& slot = s.data[fn];
  if (!slot) slot = std::make_unique<Frame>();  // value-initialised: zeroed
  return slot->data();
}

std::vector<u64> PhysicalMemory::backed_frame_table() const {
  std::vector<u64> out;
  for (const Shard& s : shards_) {
    sync::SpinGuard lock(s.mu);
    for (const auto& [fn, frame] : s.data) out.push_back(fn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const u8* PhysicalMemory::frame_data_if_present(Hpa frame) const {
  const u64 fn = page_index(frame);
  const Shard& s = shard_of(fn);
  sync::SpinGuard lock(s.mu);
  const auto it = s.data.find(fn);
  return it == s.data.end() ? nullptr : it->second->data();
}

u64 PhysicalMemory::read_u64(Hpa addr) const {
  assert(page_offset(addr) + 8 <= kPageSize);
  const u8* p = frame_data_if_present(page_floor(addr));
  if (p == nullptr) return 0;
  u64 v;
  std::memcpy(&v, p + page_offset(addr), sizeof v);
  return v;
}

void PhysicalMemory::write_u64(Hpa addr, u64 value) {
  assert(page_offset(addr) + 8 <= kPageSize);
  u8* p = frame_data(page_floor(addr));
  std::memcpy(p + page_offset(addr), &value, sizeof value);
}

}  // namespace ooh::sim

#include "sim/phys_mem.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "base/sync.hpp"

namespace ooh::sim {

PhysicalMemory::PhysicalMemory(u64 bytes)
    : total_frames_(pages_for_bytes(bytes)),
      chunk_count_((total_frames_ + kChunkFrames - 1) / kChunkFrames),
      chunks_(std::make_unique<sync::Atomic<Chunk*>[]>(chunk_count_)) {
  // Frame 0 is reserved (HPA 0 doubles as "not configured" in VMCS fields,
  // as firmware does on real machines).
  // relaxed-ok: construction precedes any concurrent use.
  next_frame_.store(1, std::memory_order_relaxed);
}

PhysicalMemory::~PhysicalMemory() {
  for (u64 c = 0; c < chunk_count_; ++c) {
    // relaxed-ok: destruction follows every concurrent use (the owner joined
    // its threads before dropping the machine).
    Chunk* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    // relaxed-ok: as above.
    for (Slot& s : chunk->slots) delete s.load(std::memory_order_relaxed);
    delete chunk;
  }
}

PhysicalMemory::Slot& PhysicalMemory::slot(u64 fn) {
  if (fn >= total_frames_) {
    throw std::out_of_range("frame " + std::to_string(fn) + " past host memory (" +
                            std::to_string(total_frames_) + " frames)");
  }
  sync::Atomic<Chunk*>& entry = chunks_[fn / kChunkFrames];
  Chunk* chunk = entry.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    // First touch of this 16 MiB range: install a chunk. A racing toucher
    // that loses the CAS adopts the winner's chunk (the failed CAS loads it
    // with acquire) and drops its own.
    auto fresh = std::make_unique<Chunk>();
    if (entry.compare_exchange_strong(chunk, fresh.get(), std::memory_order_acq_rel)) {
      chunk = fresh.release();
    }
  }
  return chunk->slots[fn % kChunkFrames];
}

PhysicalMemory::Slot* PhysicalMemory::slot_if_present(u64 fn) const {
  if (fn >= total_frames_) return nullptr;
  Chunk* chunk = chunks_[fn / kChunkFrames].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk->slots[fn % kChunkFrames];
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
         // published by the frame table's own CAS).
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
  // Drop the contents before the frame is recycled, so its next owner
  // reads zeroes.
  if (Slot* contents = slot_if_present(fn)) {
    delete contents->exchange(nullptr, std::memory_order_acq_rel);
  }
  Shard& s = shards_[fn % kShards];
  {
    sync::SpinGuard lock(s.mu);
    s.free_list.push_back(fn);
  }
  // relaxed-ok: debug sanity bound on a statistics counter.
  assert(used_frames_.load(std::memory_order_relaxed) > 0);
  // relaxed-ok: statistics counter; the shard mutex ordered the hand-off.
  used_frames_.fetch_sub(1, std::memory_order_relaxed);
}

u64 PhysicalMemory::installed_chunks() const {
  u64 n = 0;
  for (u64 c = 0; c < chunk_count_; ++c) {
    if (chunks_[c].load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

u8* PhysicalMemory::frame_data(Hpa frame) {
  Slot& s = slot(page_index(frame));
  Frame* f = s.load(std::memory_order_acquire);
  if (f == nullptr) {
    auto fresh = std::make_unique<Frame>();  // value-initialised: zeroed
    if (s.compare_exchange_strong(f, fresh.get(), std::memory_order_acq_rel)) {
      f = fresh.release();
    }
  }
  return f->data();
}

const u8* PhysicalMemory::frame_data_if_present(Hpa frame) const {
  const Slot* s = slot_if_present(page_index(frame));
  if (s == nullptr) return nullptr;
  const Frame* f = s->load(std::memory_order_acquire);
  return f == nullptr ? nullptr : f->data();
}

std::vector<u64> PhysicalMemory::backed_frame_table() const {
  std::vector<u64> out;
  for (u64 c = 0; c < chunk_count_; ++c) {
    const Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (u64 i = 0; i < kChunkFrames; ++i) {
      if (chunk->slots[i].load(std::memory_order_acquire) != nullptr) {
        out.push_back(c * kChunkFrames + i);
      }
    }
  }
  return out;
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

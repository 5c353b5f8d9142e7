#include "sim/phys_mem.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace ooh::sim {

PhysicalMemory::PhysicalMemory(u64 first_frame, u64 frames)
    : first_frame_(first_frame),
      end_frame_(first_frame + frames),
      next_frame_(first_frame),
      chunks_((frames + kChunkFrames - 1) / kChunkFrames) {}

PhysicalMemory::PhysicalMemory(u64 bytes)
    : PhysicalMemory(1, bytes >= kPageSize ? bytes / kPageSize - 1 : 0) {}

Hpa PhysicalMemory::alloc_frame() {
  u64 fn;
  if (!free_list_.empty()) {
    fn = free_list_.back();
    free_list_.pop_back();
  } else if (next_frame_ < end_frame_) {
    fn = next_frame_++;
  } else {
    throw std::bad_alloc{};
  }
  ++used_frames_;
  return fn << kPageShift;
}

Hpa PhysicalMemory::alloc_frames_contiguous(u64 count) {
  assert(count > 0);
  if (count > end_frame_ - next_frame_) throw std::bad_alloc{};
  const u64 fn = next_frame_;
  next_frame_ += count;
  used_frames_ += count;
  return fn << kPageShift;
}

void PhysicalMemory::free_frame(Hpa frame) {
  assert(is_page_aligned(frame));
  const u64 fn = page_index(frame);
  if (fn < first_frame_ || fn >= next_frame_) {
    throw std::logic_error("free of frame " + std::to_string(fn) +
                           ", which this partition [" + std::to_string(first_frame_) +
                           ", " + std::to_string(end_frame_) + ") never handed out");
  }
  // Drop the contents before the frame is recycled, so its next owner
  // reads zeroes.
  if (std::unique_ptr<Chunk>& chunk = chunks_[(fn - first_frame_) / kChunkFrames]) {
    (*chunk)[(fn - first_frame_) % kChunkFrames].reset();
  }
  free_list_.push_back(fn);
  assert(used_frames_ > 0);
  --used_frames_;
}

u8* PhysicalMemory::frame_data(Hpa frame) {
  const u64 fn = page_index(frame);
  if (!owns(fn)) {
    throw std::out_of_range("frame " + std::to_string(fn) + " outside the partition [" +
                            std::to_string(first_frame_) + ", " +
                            std::to_string(end_frame_) + ")");
  }
  const u64 i = fn - first_frame_;
  std::unique_ptr<Chunk>& chunk = chunks_[i / kChunkFrames];
  if (chunk == nullptr) chunk = std::make_unique<Chunk>();  // all slots null
  std::unique_ptr<Frame>& f = (*chunk)[i % kChunkFrames];
  if (f == nullptr) f = std::make_unique<Frame>();  // value-initialised: zeroed
  return f->data();
}

const u8* PhysicalMemory::frame_data_if_present(Hpa frame) const {
  const u64 fn = page_index(frame);
  if (!owns(fn)) return nullptr;
  const u64 i = fn - first_frame_;
  const std::unique_ptr<Chunk>& chunk = chunks_[i / kChunkFrames];
  if (chunk == nullptr) return nullptr;
  const std::unique_ptr<Frame>& f = (*chunk)[i % kChunkFrames];
  return f == nullptr ? nullptr : f->data();
}

std::vector<u64> PhysicalMemory::backed_frame_table() const {
  std::vector<u64> out;
  for (u64 c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c] == nullptr) continue;
    for (u64 i = 0; i < kChunkFrames; ++i) {
      if ((*chunks_[c])[i] != nullptr) out.push_back(first_frame_ + c * kChunkFrames + i);
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

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
  // Drop the contents and the claim before the frame is recycled, so its
  // next owner reads zeroes and no image slot takes it for the old frame.
  if (std::unique_ptr<Chunk>& chunk = chunks_[(fn - first_frame_) / kChunkFrames]) {
    (*chunk)[(fn - first_frame_) % kChunkFrames] = FrameRecord{};
  }
  free_list_.push_back(fn);
  assert(used_frames_ > 0);
  --used_frames_;
}

namespace {

/// The mask of the lines that bytes [offset, offset + len) of a frame cover.
u64 lines_of(u64 offset, u64 len) noexcept {
  assert(len > 0 && offset + len <= kPageSize);
  const u64 first = offset / PhysicalMemory::kLineSize;
  const u64 last = (offset + len - 1) / PhysicalMemory::kLineSize;
  return ((u64{2} << (last - first)) - 1) << first;  // 2 << 63 wraps to 0: all lines
}

}  // namespace

const PhysicalMemory::FrameRecord* PhysicalMemory::find(Hpa frame) const noexcept {
  const u64 fn = page_index(frame);
  if (!owns(fn)) return nullptr;
  const u64 i = fn - first_frame_;
  const std::unique_ptr<Chunk>& chunk = chunks_[i / kChunkFrames];
  return chunk == nullptr ? nullptr : &(*chunk)[i % kChunkFrames];
}

PhysicalMemory::FrameRecord& PhysicalMemory::materialise(Hpa frame) {
  const u64 fn = page_index(frame);
  if (!owns(fn)) {
    throw std::out_of_range("frame " + std::to_string(fn) + " outside the partition [" +
                            std::to_string(first_frame_) + ", " +
                            std::to_string(end_frame_) + ")");
  }
  const u64 i = fn - first_frame_;
  std::unique_ptr<Chunk>& chunk = chunks_[i / kChunkFrames];
  if (chunk == nullptr) chunk = std::make_unique<Chunk>();  // all records fresh
  FrameRecord& f = (*chunk)[i % kChunkFrames];
  if (f.frame == nullptr) {
    f.frame = std::make_unique<Frame>();  // value-initialised: zeroed, unclaimed
    f.lines = kAllLines;
  }
  return f;
}

const u8* PhysicalMemory::frame_data_if_present(Hpa frame) const {
  const FrameRecord* f = find(frame);
  return f == nullptr || f->frame == nullptr ? nullptr : f->frame->bytes.data();
}

std::vector<u64> PhysicalMemory::backed_frame_table() const {
  std::vector<u64> out;
  for (u64 c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c] == nullptr) continue;
    for (u64 i = 0; i < kChunkFrames; ++i) {
      if ((*chunks_[c])[i].frame != nullptr) out.push_back(first_frame_ + c * kChunkFrames + i);
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
  FrameRecord& f = materialise(page_floor(addr));
  std::memcpy(f.frame->bytes.data() + page_offset(addr), &value, sizeof value);
  f.lines |= lines_of(page_offset(addr), sizeof value);
}

void PhysicalMemory::write(Hpa addr, std::span<const u8> bytes) {
  if (bytes.empty()) return;
  if (page_offset(addr) + bytes.size() > kPageSize) {
    throw std::out_of_range("frame write crosses the end of its frame");
  }
  FrameRecord& f = materialise(page_floor(addr));
  std::memcpy(f.frame->bytes.data() + page_offset(addr), bytes.data(), bytes.size());
  f.lines |= lines_of(page_offset(addr), bytes.size());
}

void PhysicalMemory::zero(Hpa frame) {
  assert(is_page_aligned(frame));
  if (FrameRecord* f = find(frame); f != nullptr && f->frame != nullptr) {
    f->frame->bytes.fill(0);
    f->lines = kAllLines;
    return;
  }
  (void)materialise(frame);  // comes zeroed, every line marked
}

PhysicalMemory::Claim PhysicalMemory::claim(Hpa frame, const void* copy) {
  assert(is_page_aligned(frame));
  FrameRecord* f = find(frame);
  if (f == nullptr || f->frame == nullptr) return {};
  const auto id = reinterpret_cast<std::uintptr_t>(copy);
  const Claim out{f->frame->bytes.data(), f->frame->claimed_by == id ? f->lines : kAllLines};
  f->frame->claimed_by = id;
  f->lines = 0;
  return out;
}

void PhysicalMemory::debug_forget_lines(Hpa frame) {
  materialise(page_floor(frame)).lines = 0;
}

}  // namespace ooh::sim

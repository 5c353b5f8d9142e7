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
  // next owner reads zeroes and no image slot takes it for the old frame:
  // the bytes keep their address, so the reset claim is what tells them apart.
  const u64 i = fn - first_frame_;
  if (const Chunk& c = chunks_[i / kChunkFrames]; c.records != nullptr) {
    (*c.records)[i % kChunkFrames] = FrameRecord{};
    base::asan_poison(c.block.data() + i % kChunkFrames * kPageSize, kPageSize);
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

PhysicalMemory::FrameRef PhysicalMemory::materialise_fresh(Hpa frame) {
  const u64 fn = page_index(frame);
  if (!owns(fn)) {
    throw std::out_of_range("frame " + std::to_string(fn) + " outside the partition [" +
                            std::to_string(first_frame_) + ", " +
                            std::to_string(end_frame_) + ")");
  }
  const u64 i = fn - first_frame_;
  Chunk& c = chunks_[i / kChunkFrames];
  if (c.records == nullptr) {
    c.block = base::HostBlock::take();
    c.records = std::make_unique<std::array<FrameRecord, kChunkFrames>>();  // all fresh
  }
  const u64 j = i % kChunkFrames;
  const FrameRef f{&(*c.records)[j], c.block.data() + j * kPageSize};
  // A recycled block holds its last owner's bytes.
  base::asan_unpoison(f.bytes, kPageSize);
  std::memset(f.bytes, 0, kPageSize);
  *f.record = FrameRecord{kAllLines, kUnclaimed};
  return f;
}

std::vector<u64> PhysicalMemory::backed_frame_table() const {
  std::vector<u64> out;
  for (u64 c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c].records == nullptr) continue;
    for (u64 j = 0; j < kChunkFrames; ++j) {
      if ((*chunks_[c].records)[j].claimed_by != kNoContents) {
        out.push_back(first_frame_ + c * kChunkFrames + j);
      }
    }
  }
  return out;
}

void PhysicalMemory::write(Hpa addr, std::span<const u8> bytes) {
  if (bytes.empty()) return;
  if (page_offset(addr) + bytes.size() > kPageSize) {
    throw std::out_of_range("frame write crosses the end of its frame");
  }
  const FrameRef f = materialise(page_floor(addr));
  std::memcpy(f.bytes + page_offset(addr), bytes.data(), bytes.size());
  f.record->lines |= lines_of(page_offset(addr), bytes.size());
}

void PhysicalMemory::zero(Hpa frame) {
  assert(is_page_aligned(frame));
  if (const FrameRef f = find(frame); f.record != nullptr) {
    std::memset(f.bytes, 0, kPageSize);
    f.record->lines = kAllLines;
    return;
  }
  (void)materialise_fresh(frame);  // comes zeroed, every line marked
}

PhysicalMemory::Claim PhysicalMemory::claim(Hpa frame, const void* copy) {
  assert(is_page_aligned(frame));
  const FrameRef f = find(frame);
  if (f.record == nullptr) return {};
  const auto id = reinterpret_cast<std::uintptr_t>(copy);
  assert(id != kNoContents && id != kUnclaimed);
  const Claim out{f.bytes, f.record->claimed_by == id ? f.record->lines : kAllLines};
  f.record->claimed_by = id;
  f.record->lines = 0;
  return out;
}

void PhysicalMemory::debug_forget_lines(Hpa frame) {
  materialise(page_floor(frame)).record->lines = 0;
}

}  // namespace ooh::sim

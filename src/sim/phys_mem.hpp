// Host physical memory, one partition at a time: the frame allocator of one
// VM's fixed host-frame window plus that window's lazily materialised
// contents.
//
// Each VM owns the partition [first_frame, first_frame + frames) that its
// hypervisor carved from the Machine at creation (the memslot analogue), and
// only the thread that runs the VM touches it. So the allocator is a plain
// bump pointer plus one free list, with no locks or atomics, and a VM's HPA
// sequence depends on nothing but its own allocations: the same at any
// worker count.
//
// Frames are identified by absolute HPA. Page *contents* are only
// materialised when something actually stores data (PML hardware writes,
// data-backed workloads, CRIU image verification); metadata-only workloads
// touch translations without allocating backing bytes, which keeps GB-scale
// sweeps cheap. Contents live in a two-level table: a directory of chunk
// pointers, each chunk holding kChunkFrames frame records, both filled on
// first touch. For a 5 GiB window the directory is 2.5 KiB, plus 64 KiB of
// records per touched 16 MiB of frames.
//
// The write surface is closed: write_u64, write and zero are the only ways
// to change a frame's bytes, and each marks the 64-byte lines it covers in
// the frame's line mask. A checkpoint image slot that copies the frame
// claims it (claim()), which clears the mask and records the slot; the next
// claim by the same slot learns which lines changed since, so a re-dump
// moves only those (criu::PageStore holds the slot side of the handshake).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/types.hpp"

namespace ooh::sim {

class PhysicalMemory {
 public:
  /// Frame-table slots per lazily allocated chunk: 16 MiB of host memory.
  static constexpr u64 kChunkFrames = 16 * kMiB / kPageSize;

  /// The partition of host frames [first_frame, first_frame + frames).
  PhysicalMemory(u64 first_frame, u64 frames);
  /// A whole host of `bytes` as one partition. Frame 0 stays reserved (HPA 0
  /// doubles as "not configured" in VMCS fields, as firmware does on real
  /// machines), so the partition is frames [1, bytes / kPageSize).
  explicit PhysicalMemory(u64 bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  /// Allocate one free frame; throws std::bad_alloc when exhausted.
  [[nodiscard]] Hpa alloc_frame();
  /// Return a frame to the free list. Throws std::logic_error for a frame
  /// this partition never handed out (another VM's frame, or one past host
  /// RAM), so a stray HPA cannot enter the free list.
  void free_frame(Hpa frame);

  /// Allocate `count` physically contiguous frames (a huge-leaf backing
  /// run) from the bump pointer; returns the first frame's HPA. Contiguous
  /// runs never come from the recycled free list — fragmentation there is
  /// exactly why real kernels struggle to build huge pages late. Throws
  /// std::bad_alloc when the bump region cannot fit the run. The run may be
  /// freed frame-by-frame with free_frame() (after an eager split breaks
  /// the leaf into 4 KiB mappings).
  [[nodiscard]] Hpa alloc_frames_contiguous(u64 count);

  /// First frame number of the partition and one past its last.
  [[nodiscard]] u64 first_frame() const noexcept { return first_frame_; }
  [[nodiscard]] u64 end_frame() const noexcept { return end_frame_; }
  /// True when frame number `fn` lies in this partition.
  [[nodiscard]] bool owns(u64 fn) const noexcept {
    return fn >= first_frame_ && fn < end_frame_;
  }

  [[nodiscard]] u64 used_frames() const noexcept { return used_frames_; }
  [[nodiscard]] u64 backed_frames() const { return backed_frame_table().size(); }

  /// Bytes per line of a frame's line mask, and the mask of every line.
  static constexpr u64 kLineSize = 64;
  static constexpr u64 kAllLines = ~u64{0};
  static_assert(kPageSize / kLineSize == 64, "one mask bit per line of a page");

  /// Read-only view of a frame's 4KiB contents; nullptr when the frame was
  /// never written (all-zero) or lies outside the partition. The pointer
  /// stays valid until the frame is freed.
  [[nodiscard]] const u8* frame_data_if_present(Hpa frame) const;

  // The write surface. Each materialises the frame's contents (zeroed) on
  // first touch and marks the lines it covers. Out-of-range addresses read
  // as zero and throw std::out_of_range on write.
  [[nodiscard]] u64 read_u64(Hpa addr) const;
  void write_u64(Hpa addr, u64 value);
  /// Copy `bytes` to `addr`; the span must end inside addr's frame.
  void write(Hpa addr, std::span<const u8> bytes);
  /// Zero `frame`'s contents, materialising them if absent: a demand fault's
  /// anonymous page.
  void zero(Hpa frame);

  /// What a copy of a frame must move.
  struct Claim {
    const u8* bytes = nullptr;  ///< the contents; null when the frame has none.
    u64 lines = 0;              ///< lines written since `copy` last claimed it.
  };
  /// Record that `copy` (an image slot's identity) now holds `frame`'s
  /// bytes: return the lines written since `copy` last claimed the frame
  /// (all of them when another copy claimed it since, or none ever did),
  /// then clear the mask. A frame without contents claims nothing and
  /// returns {nullptr, 0}. The caller must copy the returned lines before
  /// the frame is written again.
  [[nodiscard]] Claim claim(Hpa frame, const void* copy);

  /// Test-only corruption: forget the lines written since the last claim,
  /// as a write that did not mark its line would. IMG-1 exists to catch it.
  void debug_forget_lines(Hpa frame);

  /// Listing of every backed frame number, in frame order. The FRAME-4
  /// ownership audit walks this to reconcile materialised contents against
  /// claims.
  [[nodiscard]] std::vector<u64> backed_frame_table() const;

 private:
  /// A frame's materialised contents and the copy that last claimed them:
  /// that copy's address, 0 for none (an integer, since the copy may be
  /// gone; it is only ever compared). The claim lives and dies with the
  /// contents, and on glibc it costs no heap: 4096 and 4104 bytes round to
  /// the same chunk.
  struct Frame {
    std::array<u8, kPageSize> bytes;
    std::uintptr_t claimed_by;
  };
  /// One frame-table slot: 16 bytes, four to a cache line, so a word store
  /// finds the contents and marks its line in the same line of the table.
  struct FrameRecord {
    std::unique_ptr<Frame> frame;  ///< null until materialised.
    u64 lines = 0;                 ///< lines written since the last claim.
  };
  using Chunk = std::array<FrameRecord, kChunkFrames>;

  /// The record of `frame`, or nullptr outside the partition or its chunks.
  [[nodiscard]] const FrameRecord* find(Hpa frame) const noexcept;
  [[nodiscard]] FrameRecord* find(Hpa frame) noexcept {
    return const_cast<FrameRecord*>(std::as_const(*this).find(frame));
  }
  /// The record of `frame` with its contents materialised (zeroed, every
  /// line marked); throws std::out_of_range outside the partition.
  [[nodiscard]] FrameRecord& materialise(Hpa frame);

  u64 first_frame_;
  u64 end_frame_;
  u64 next_frame_;  // bump pointer, in frame numbers
  u64 used_frames_ = 0;
  std::vector<u64> free_list_;  // recycled frame numbers
  std::vector<std::unique_ptr<Chunk>> chunks_;  // the frame-table directory
};

}  // namespace ooh::sim

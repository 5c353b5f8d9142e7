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
// pointers, each chunk holding kChunkFrames frame pointers, both filled on
// first touch. For a 5 GiB window the directory is 2.5 KiB, plus 32 KiB of
// slots per touched 16 MiB of frames.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "base/types.hpp"

namespace ooh::sim {

class PhysicalMemory {
 public:
  using Frame = std::array<u8, kPageSize>;
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

  /// Mutable view of a frame's 4KiB contents, materialising them (zeroed)
  /// on demand. The pointer stays valid until the frame is freed. Throws
  /// std::out_of_range for a frame outside the partition.
  [[nodiscard]] u8* frame_data(Hpa frame);
  /// Read-only view; nullptr when the frame was never written (all-zero)
  /// or lies outside the partition.
  [[nodiscard]] const u8* frame_data_if_present(Hpa frame) const;

  // Word accessors used by the PML circuit to write log entries into RAM.
  // Out-of-range addresses read as zero and throw on write, as above.
  [[nodiscard]] u64 read_u64(Hpa addr) const;
  void write_u64(Hpa addr, u64 value);

  /// Listing of every backed frame number, in frame order. The FRAME-4
  /// ownership audit walks this to reconcile materialised contents against
  /// claims.
  [[nodiscard]] std::vector<u64> backed_frame_table() const;

 private:
  using Chunk = std::array<std::unique_ptr<Frame>, kChunkFrames>;

  u64 first_frame_;
  u64 end_frame_;
  u64 next_frame_;  // bump pointer, in frame numbers
  u64 used_frames_ = 0;
  std::vector<u64> free_list_;  // recycled frame numbers
  std::vector<std::unique_ptr<Chunk>> chunks_;  // the frame-table directory
};

}  // namespace ooh::sim

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
// sweeps cheap. The frame table is two-level: a directory with one entry per
// 16 MiB of frames (kChunkFrames = 4096), each entry a pointer to that
// chunk's 16-byte frame records and the chunk's contents block
// (base::HostBlock: one page-aligned 16 MiB host mapping, recycled per
// thread). Both are taken on the chunk's first materialise, and frame j of
// the chunk keeps its bytes at block + j * 4 KiB, found by arithmetic. For
// a 5 GiB window the directory is 5 KiB, plus 64 KiB of records per touched
// 16 MiB of frames; the block commits host pages only as frames are
// touched.
//
// The write surface is closed: write_u64, write and zero are the only ways
// to change a frame's bytes, and each marks the 64-byte lines it covers in
// the frame's line mask. A checkpoint image slot that copies the frame
// claims it (claim()), which clears the mask and records the slot; the next
// claim by the same slot learns which lines changed since, so a re-dump
// moves only those (criu::PageStore holds the slot side of the handshake).
// A frame keeps its bytes address across free and reuse, so the slot's
// record of the address it copied cannot tell a recycled frame from the old
// one: free_frame resetting the claimant is what forces the whole copy
// after reuse.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "base/host_block.hpp"
#include "base/types.hpp"

namespace ooh::sim {

class PhysicalMemory {
 public:
  /// Frames per lazily allocated chunk: one 16 MiB host block of contents.
  static constexpr u64 kChunkFrames = base::HostBlock::kPages;

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

  /// Read-only view of a frame's 4KiB contents, page-aligned; nullptr when
  /// the frame was never written (all-zero) or lies outside the partition.
  /// The pointer stays valid until the frame is freed.
  [[nodiscard]] const u8* frame_data_if_present(Hpa frame) const { return find(frame).bytes; }

  // The write surface. Each materialises the frame's contents (zeroed) on
  // first touch and marks the lines it covers. Out-of-range addresses read
  // as zero and throw std::out_of_range on write. The word accessors are
  // inline: every simulated data store and PML log entry takes them.
  [[nodiscard]] u64 read_u64(Hpa addr) const {
    assert(page_offset(addr) + 8 <= kPageSize);
    const u8* p = frame_data_if_present(page_floor(addr));
    if (p == nullptr) return 0;
    u64 v = 0;
    std::memcpy(&v, p + page_offset(addr), sizeof v);
    return v;
  }
  void write_u64(Hpa addr, u64 value) {
    assert(page_offset(addr) + 8 <= kPageSize);
    const FrameRef f = materialise(page_floor(addr));
    std::memcpy(f.bytes + page_offset(addr), &value, sizeof value);
    // The word's first and last byte: one line, or two when it straddles.
    f.record->lines |= (u64{1} << (page_offset(addr) / kLineSize)) |
                       (u64{1} << ((page_offset(addr) + sizeof value - 1) / kLineSize));
  }
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
  /// One frame-table slot: 16 bytes, four to a cache line. `claimed_by` is
  /// kNoContents until the frame is materialised, kUnclaimed until a copy
  /// claims it, and then that copy's address (an integer, since the copy
  /// may be gone; it is only ever compared, and a copy's address is never
  /// 0 or 1).
  static constexpr std::uintptr_t kNoContents = 0;
  static constexpr std::uintptr_t kUnclaimed = 1;
  struct FrameRecord {
    u64 lines = 0;                ///< lines written since the last claim.
    std::uintptr_t claimed_by = kNoContents;
  };
  /// A directory entry: the records of a 16 MiB chunk of frames and the
  /// block holding their contents, both null until its first materialise.
  struct Chunk {
    std::unique_ptr<std::array<FrameRecord, kChunkFrames>> records;
    base::HostBlock block;
  };
  /// A frame's record and the address of its contents' 4 KiB.
  struct FrameRef {
    FrameRecord* record = nullptr;
    u8* bytes = nullptr;
  };

  /// The record and bytes of `frame` if it has contents; {nullptr, nullptr}
  /// otherwise, or outside the partition.
  [[nodiscard]] FrameRef find(Hpa frame) const noexcept {
    const u64 i = page_index(frame) - first_frame_;  // wraps below the partition
    if (i >= end_frame_ - first_frame_) return {};
    const Chunk& c = chunks_[i / kChunkFrames];
    if (c.records == nullptr) return {};
    const u64 j = i % kChunkFrames;
    FrameRecord& r = (*c.records)[j];
    if (r.claimed_by == kNoContents) return {};
    return {&r, c.block.data() + j * kPageSize};
  }
  /// `frame` with its contents materialised (zeroed, every line marked);
  /// throws std::out_of_range outside the partition.
  [[nodiscard]] FrameRef materialise(Hpa frame) {
    const FrameRef f = find(frame);
    return f.record != nullptr ? f : materialise_fresh(frame);
  }
  /// materialise() for a frame that has no contents (or lies outside the
  /// partition, which throws).
  FrameRef materialise_fresh(Hpa frame);

  u64 first_frame_;
  u64 end_frame_;
  u64 next_frame_;  // bump pointer, in frame numbers
  u64 used_frames_ = 0;
  std::vector<u64> free_list_;  // recycled frame numbers
  std::vector<Chunk> chunks_;   // the frame-table directory
};

}  // namespace ooh::sim

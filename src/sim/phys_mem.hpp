// Host physical memory: frame allocator plus lazily materialised contents.
//
// Frames are identified by HPA. Page *contents* are only materialised when
// something actually stores data (PML hardware writes, data-backed workloads,
// CRIU image verification); metadata-only workloads touch translations
// without allocating backing bytes, which keeps GB-scale sweeps cheap.
//
// This is the one mutable structure shared between concurrently running
// per-vCPU timelines, so it is thread-safe:
//   * Contents live in a dense two-level frame table indexed by frame
//     number: a directory of chunk pointers, each chunk an array of
//     kChunkFrames frame-pointer slots. Chunks and frames are allocated on
//     first touch and published by CAS (acq_rel); readers take acquire
//     loads. Content accessors take no lock and do no hashing. For the
//     default 64 GiB host the directory is 32 KiB, plus 32 KiB of slots per
//     touched 16 MiB of frames.
//   * The recycled-frame free lists are sharded by frame number, each shard
//     behind its own mutex; the bump pointer is a lock-free CAS.
// Frame *contents* need no lock — no two VMs ever share a frame, so
// cross-thread access to the same frame's bytes does not happen by
// construction (a frame changes hands only through the free lists).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "base/sync.hpp"
#include "base/types.hpp"

namespace ooh::sim {

class PhysicalMemory {
 public:
  using Frame = std::array<u8, kPageSize>;
  /// Frame-table slots per lazily allocated chunk: 16 MiB of host memory.
  static constexpr u64 kChunkFrames = 16 * kMiB / kPageSize;

  explicit PhysicalMemory(u64 bytes);
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  /// Allocate one free frame; throws std::bad_alloc when exhausted.
  [[nodiscard]] Hpa alloc_frame();
  void free_frame(Hpa frame);

  /// Allocate `count` physically contiguous frames (a huge-leaf backing
  /// run) from the bump pointer; returns the first frame's HPA. Contiguous
  /// runs never come from the recycled free lists — fragmentation there is
  /// exactly why real kernels struggle to build huge pages late. Throws
  /// std::bad_alloc when the bump region cannot fit the run. The run may be
  /// freed frame-by-frame with free_frame() (after an eager split breaks
  /// the leaf into 4 KiB mappings).
  [[nodiscard]] Hpa alloc_frames_contiguous(u64 count);

  [[nodiscard]] u64 total_frames() const noexcept { return total_frames_; }
  [[nodiscard]] u64 used_frames() const noexcept {
    // relaxed-ok: a monotonic statistics counter — readers tolerate a stale
    // snapshot and no other state is published through it.
    return used_frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 backed_frames() const { return backed_frame_table().size(); }
  /// Frame-table chunks installed so far (never shrinks).
  [[nodiscard]] u64 installed_chunks() const;

  /// Mutable view of a frame's 4KiB contents, materialising them (zeroed)
  /// on demand. The pointer stays valid until the frame is freed. Throws
  /// std::out_of_range for a frame at or past total_frames().
  [[nodiscard]] u8* frame_data(Hpa frame);
  /// Read-only view; nullptr when the frame was never written (all-zero)
  /// or lies past total_frames().
  [[nodiscard]] const u8* frame_data_if_present(Hpa frame) const;

  // Word accessors used by the PML circuit to write log entries into RAM.
  // Out-of-range addresses read as zero and throw on write, as above.
  [[nodiscard]] u64 read_u64(Hpa addr) const;
  void write_u64(Hpa addr, u64 value);

  /// Quiescent-point listing of every backed frame number, in frame order.
  /// The FRAME-4 ownership audit walks this to reconcile materialised
  /// contents against claims.
  [[nodiscard]] std::vector<u64> backed_frame_table() const;

 private:
  static constexpr std::size_t kShards = 16;

  using Slot = sync::Atomic<Frame*>;
  struct Chunk {
    std::array<Slot, kChunkFrames> slots;  // value-initialised: all null
  };

  struct Shard {
    sync::Mutex mu;
    std::vector<u64> free_list;  // recycled frame numbers
  };

  /// Slot of frame `fn`, installing its chunk on first touch.
  [[nodiscard]] Slot& slot(u64 fn);
  /// Slot of frame `fn`; nullptr when out of range or its chunk is absent.
  [[nodiscard]] Slot* slot_if_present(u64 fn) const;

  u64 total_frames_;
  sync::Atomic<u64> used_frames_{0};
  sync::Atomic<u64> next_frame_{0};  // bump pointer, in frame numbers
  // Free-list search start rotor (contention spreading). Per-machine, not
  // global, so each machine's HPA sequence depends only on its own
  // allocations — deterministic even while parallel cells build machines
  // side by side.
  sync::Atomic<u64> alloc_rotor_{0};
  std::array<Shard, kShards> shards_;
  u64 chunk_count_;
  std::unique_ptr<sync::Atomic<Chunk*>[]> chunks_;  // the frame-table directory
};

}  // namespace ooh::sim

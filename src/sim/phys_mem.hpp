// Host physical memory: frame allocator plus lazily materialised contents.
//
// Frames are identified by HPA. Page *contents* are only materialised when
// something actually stores data (PML hardware writes, data-backed workloads,
// CRIU image verification); metadata-only workloads touch translations
// without allocating backing bytes, which keeps GB-scale sweeps cheap.
//
// This is the one mutable structure shared between concurrently running
// per-vCPU timelines, so it is thread-safe: the free list and the backing-
// page map are sharded by frame number, each shard behind its own mutex,
// and the bump pointer is a lock-free CAS. Frame *contents* need no lock
// beyond the map shard — no two VMs ever share a frame, so cross-thread
// access to the same frame's bytes does not happen by construction.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/sync.hpp"
#include "base/types.hpp"

namespace ooh::sim {

class PhysicalMemory {
 public:
  using Frame = std::array<u8, kPageSize>;

  explicit PhysicalMemory(u64 bytes);

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
  [[nodiscard]] u64 backed_frames() const;

  /// Mutable view of a frame's 4KiB contents, materialising them (zeroed)
  /// on demand. The pointer stays valid until the frame is freed.
  [[nodiscard]] u8* frame_data(Hpa frame);
  /// Read-only view; nullptr when the frame was never written (all-zero).
  [[nodiscard]] const u8* frame_data_if_present(Hpa frame) const;

  // Word accessors used by the PML circuit to write log entries into RAM.
  [[nodiscard]] u64 read_u64(Hpa addr) const;
  void write_u64(Hpa addr, u64 value);

  /// Quiescent-point listing of every backed frame number, sorted. The
  /// FRAME-4 ownership audit walks this to reconcile materialised contents
  /// against claims.
  [[nodiscard]] std::vector<u64> backed_frame_table() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable sync::Mutex mu;
    std::vector<u64> free_list;                             // recycled frame numbers
    std::unordered_map<u64, std::unique_ptr<Frame>> data;   // keyed by frame number
  };

  [[nodiscard]] Shard& shard_of(u64 frame_number) const noexcept {
    return shards_[frame_number % kShards];
  }

  u64 total_frames_;
  sync::Atomic<u64> used_frames_{0};
  sync::Atomic<u64> next_frame_{0};  // bump pointer, in frame numbers
  // Free-list search start rotor (contention spreading). Per-machine, not
  // global, so each machine's HPA sequence depends only on its own
  // allocations — deterministic even while parallel cells build machines
  // side by side.
  sync::Atomic<u64> alloc_rotor_{0};
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace ooh::sim

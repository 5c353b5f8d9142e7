// Per-vCPU dirty ring: the KVM-dirty-ring-style harvesting primitive that
// replaces the hypervisor's stop-the-world dirty bitmap.
//
// Each vCPU owns one ring: a bounded FIFO of GPAs pushed as its PML buffer
// drains and popped by the hypervisor's harvest. A VM's vCPUs and its
// harvest all run on the one thread that owns the VM, so the two cursors
// are plain counters. Popping charges no virtual time (it is host-side work
// off the guest's critical path).
//
// A full ring never loses an entry: the producer diverts the GPA to a spill
// log (counting Event::kDirtyRingFull) that harvest folds back in after the
// ring contents. This mirrors KVM's "ring full -> exit to userspace"
// behaviour while keeping the simulation loss-free, and gives the
// kDirtyRingFull fault point a real degraded path to exercise.
//
// Invariant RING-1 (docs/invariants.md): popped() <= pushed(), and
// pushed() - popped() <= capacity() at every instant.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "base/types.hpp"

namespace ooh::hv {

class DirtyRing {
 public:
  static constexpr std::size_t kDefaultEntries = std::size_t{1} << 16;

  explicit DirtyRing(std::size_t capacity = kDefaultEntries)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "DirtyRing capacity must be a power of two");
  }

  DirtyRing(const DirtyRing&) = delete;
  DirtyRing& operator=(const DirtyRing&) = delete;

  /// Append one GPA; false when the ring is full (caller takes the spill
  /// path).
  [[nodiscard]] bool try_push(u64 value) noexcept {
    if (tail_ - head_ >= capacity_) return false;
    slots_[tail_++ & mask_] = value;
    return true;
  }

  /// Loss-free overflow path, folded in at harvest time.
  void spill(u64 value) { spill_.push_back(value); }

  /// Pop the oldest entry; false when the ring is empty.
  [[nodiscard]] bool try_pop(u64& out) noexcept {
    if (head_ == tail_) return false;
    out = slots_[head_++ & mask_];
    return true;
  }

  /// Move the spill log out (harvest folds these after the ring contents).
  [[nodiscard]] std::vector<u64> take_spill() {
    std::vector<u64> out;
    out.swap(spill_);
    return out;
  }

  /// Drop everything (tests / teardown). Cumulative counters are kept.
  void clear() noexcept {
    head_ = tail_;
    spill_.clear();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total entries ever pushed.
  [[nodiscard]] u64 pushed() const noexcept { return tail_; }
  /// Total entries ever popped.
  [[nodiscard]] u64 popped() const noexcept { return head_; }
  /// Entries currently in the ring.
  [[nodiscard]] std::size_t pending() const noexcept {
    return static_cast<std::size_t>(tail_ - head_);
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t spill_size() const noexcept { return spill_.size(); }
  [[nodiscard]] const std::vector<u64>& spill_log() const noexcept { return spill_; }

  /// Read-only visit of the entries currently pending in the ring (oldest
  /// first) without consuming them; used by the coherence oracle's
  /// dirty-accounting audit.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (u64 i = head_; i != tail_; ++i) fn(slots_[i & mask_]);
  }

  /// RING-1: index accounting is sane (monotone indices, bounded occupancy).
  [[nodiscard]] bool bounds_ok() const noexcept {
    return head_ <= tail_ && tail_ - head_ <= capacity_;
  }

 private:
  std::size_t capacity_;
  std::size_t mask_;
  std::vector<u64> slots_;
  u64 head_ = 0;            ///< total entries popped.
  u64 tail_ = 0;            ///< total entries pushed.
  std::vector<u64> spill_;  ///< overflow (never dropped).
};

}  // namespace ooh::hv

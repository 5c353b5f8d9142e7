// Per-vCPU dirty ring: the KVM-dirty-ring-style harvesting primitive that
// replaces the hypervisor's stop-the-world dirty bitmap.
//
// Each vCPU owns one ring. The vCPU thread is the only producer (pushing GPAs
// as its PML buffer drains) and a single userspace drain thread is the only
// consumer, so the ring is a classic single-producer/single-consumer queue:
// two monotonic indices, release/acquire ordering on each, and no locks. The
// consumer may drain while the producing vCPU keeps running — that is the
// point — and popping charges no virtual time (it is host-side work off the
// guest's critical path).
//
// A full ring never loses an entry: the producer diverts the GPA to a
// producer-private spill log (counting Event::kDirtyRingFull) that harvest
// code folds back in at the next quiescent point. This mirrors KVM's
// "ring full -> exit to userspace" behaviour while keeping the simulation
// loss-free, and gives the kDirtyRingFull fault point a real degraded path
// to exercise.
//
// Memory-ordering contract (audited by the schedule explorer's
// ring_push_pop scenario across all bounded interleavings, and by the lint
// rule relaxed-needs-justification on every relaxed access below):
//
//   tail_  producer-owned cursor. Producer stores it with RELEASE after the
//          slot write so try_pop's ACQUIRE load of tail_ makes the slot
//          contents visible (publication edge P->C). The producer itself
//          reads tail_ relaxed — it is the only writer.
//   head_  consumer-owned cursor. Consumer stores it with RELEASE after the
//          slot read so try_push's ACQUIRE load of head_ proves the slot is
//          no longer being read before the producer may overwrite it on
//          wrap-around (recycling edge C->P). The consumer itself reads
//          head_ relaxed — it is the only writer.
//
// Weakening either RELEASE/ACQUIRE pair to relaxed is the seeded
// missing-release mutation test_sched_explorer.cpp proves the explorer
// catches (SCHED-RACE on the slot bytes).
//
// Invariant RING-1 (docs/invariants.md): popped() <= pushed(), and
// pushed() - popped() <= capacity() at every instant; the spill log is only
// ever touched by the producer between quiescent points.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "base/sync.hpp"
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

  // ---- producer side (the owning vCPU's thread) ---------------------------

  /// Append one GPA; false when the ring is full (caller takes the spill
  /// path). Safe against a concurrently popping consumer.
  [[nodiscard]] bool try_push(u64 value) noexcept {
    // relaxed-ok: tail_ is producer-owned; this thread is its only writer.
    const u64 tail = tail_.load(std::memory_order_relaxed);
    // Acquire pairs with the consumer's head_ release: the slot we are about
    // to overwrite on wrap-around is provably done being read.
    if (tail - head_.load(std::memory_order_acquire) >= capacity_) return false;
    OOH_SYNC_PLAIN_WRITE(&slots_[tail & mask_]);
    slots_[tail & mask_] = value;
    // Release publishes the slot write to the consumer's tail_ acquire.
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Loss-free overflow path: producer-private, folded in at harvest time.
  void spill(u64 value) {
    OOH_SYNC_PLAIN_WRITE(&spill_);
    spill_.push_back(value);
  }

  // ---- consumer side (one userspace drain thread) -------------------------

  /// Pop the oldest entry; false when the ring is observed empty. Safe while
  /// the producer keeps pushing.
  [[nodiscard]] bool try_pop(u64& out) noexcept {
    // relaxed-ok: head_ is consumer-owned; this thread is its only writer.
    const u64 head = head_.load(std::memory_order_relaxed);
    // Acquire pairs with the producer's tail_ release: makes the slot
    // contents visible before we read them.
    if (head == tail_.load(std::memory_order_acquire)) return false;
    OOH_SYNC_PLAIN_READ(&slots_[head & mask_]);
    out = slots_[head & mask_];
    // Release hands the slot back to the producer's head_ acquire — it may
    // only be overwritten once this store is visible.
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // ---- quiescent-point operations (no vCPU running, no drain in flight) ---

  /// Move the spill log out (harvest folds these after the ring contents).
  [[nodiscard]] std::vector<u64> take_spill() {
    OOH_SYNC_PLAIN_WRITE(&spill_);
    std::vector<u64> out;
    out.swap(spill_);
    return out;
  }

  /// Drop everything (tests / teardown). Cumulative counters are kept.
  void clear() noexcept {
    // relaxed-ok: quiescent-point operation by contract — no concurrent
    // producer or consumer, so there is nothing to order against.
    head_.store(tail_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    OOH_SYNC_PLAIN_WRITE(&spill_);
    spill_.clear();
  }

  // ---- introspection ------------------------------------------------------

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total entries ever pushed. Acquire so a quiescent reader that joined
  /// the producer thread sees its final slot writes too.
  [[nodiscard]] u64 pushed() const noexcept {
    return tail_.load(std::memory_order_acquire);
  }
  /// Total entries ever popped. Acquire, mirroring pushed().
  [[nodiscard]] u64 popped() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Entries currently in the ring. Exact at quiescent points; a safe
  /// point-in-time snapshot under concurrency.
  [[nodiscard]] std::size_t pending() const noexcept {
    const u64 tail = tail_.load(std::memory_order_acquire);
    const u64 head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t spill_size() const noexcept { return spill_.size(); }
  [[nodiscard]] const std::vector<u64>& spill_log() const noexcept { return spill_; }

  /// Quiescent-point read-only visit of the entries currently pending in
  /// the ring (oldest first) without consuming them; used by the coherence
  /// oracle's dirty-accounting audit.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    const u64 tail = tail_.load(std::memory_order_acquire);
    for (u64 i = head_.load(std::memory_order_acquire); i != tail; ++i) {
      OOH_SYNC_PLAIN_READ(&slots_[i & mask_]);
      fn(slots_[i & mask_]);
    }
  }

  /// RING-1: index accounting is sane (monotone indices, bounded occupancy).
  [[nodiscard]] bool bounds_ok() const noexcept {
    const u64 tail = tail_.load(std::memory_order_acquire);
    const u64 head = head_.load(std::memory_order_acquire);
    return head <= tail && tail - head <= capacity_;
  }

 private:
  std::size_t capacity_;
  std::size_t mask_;
  std::vector<u64> slots_;
  sync::Atomic<u64> head_{0};  ///< consumer cursor: total entries popped.
  sync::Atomic<u64> tail_{0};  ///< producer cursor: total entries pushed.
  std::vector<u64> spill_;     ///< producer-private overflow (never dropped).
};

}  // namespace ooh::hv

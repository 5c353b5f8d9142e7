// Fixed-capacity ring buffer of 64-bit entries.
//
// This models the two rings the paper's design uses:
//   * the ring shared between hypervisor and guest OS (SPML), and
//   * the per-tracked-process ring the OoH module exposes to userspace
//     (both designs; per-process after the §V isolation fix).
// Overflow drops the newest entry and counts it, mirroring what a real
// shared ring does when the consumer lags; trackers surface the drop count
// so completeness tests can distinguish "missed" from "not dirtied".
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "base/types.hpp"

namespace ooh {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    // A zero-capacity ring divides by zero on the first push.
    assert(capacity > 0 && "RingBuffer capacity must be nonzero");
  }

  /// Push one entry; returns false (and counts a drop) when full.
  bool push(u64 value) noexcept {
    assert(size_ <= buf_.size() && head_ < buf_.size());
    if (size_ == buf_.size()) {
      ++dropped_;
      return false;
    }
    buf_[(head_ + size_) % buf_.size()] = value;
    ++size_;
    return true;
  }

  /// Pop the oldest entry into `out`; false when empty.
  bool pop(u64& out) noexcept {
    assert(size_ <= buf_.size() && head_ < buf_.size());
    if (size_ == 0) return false;
    out = buf_[head_];
    head_ = (head_ + 1) % buf_.size();
    --size_;
    return true;
  }

  /// Drain everything (oldest first) into a vector.
  [[nodiscard]] std::vector<u64> drain() {
    std::vector<u64> out;
    out.reserve(size_);
    u64 v = 0;
    while (pop(v)) out.push_back(v);
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == buf_.size(); }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }
  void reset_dropped() noexcept { dropped_ = 0; }

 private:
  std::vector<u64> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  u64 dropped_ = 0;
};

}  // namespace ooh

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

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "base/types.hpp"

namespace ooh {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : buf_(static_cast<u64*>(std::calloc(capacity, sizeof(u64)))), capacity_(capacity) {
    // A zero-capacity ring could hold nothing, and calloc(0) may return null.
    assert(capacity > 0 && "RingBuffer capacity must be nonzero");
    if (!buf_) throw std::bad_alloc();
  }

  /// Push one entry; returns false (and counts a drop) when full.
  bool push(u64 value) noexcept {
    assert(size_ <= capacity_ && head_ < capacity_);
    if (size_ == capacity_) {
      ++dropped_;
      return false;
    }
    // head_ and size_ are both below capacity_, so one compare wraps the
    // tail: no division on the per-entry path.
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    buf_[tail] = value;
    ++size_;
    return true;
  }

  /// Pop the oldest entry into `out`; false when empty.
  bool pop(u64& out) noexcept {
    assert(size_ <= capacity_ && head_ < capacity_);
    if (size_ == 0) return false;
    out = buf_[head_];
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return true;
  }

  /// Append `values` in order: the entries that fit are stored, the rest
  /// are dropped and counted, exactly as a push() per entry would.
  void append(std::span<const u64> values) noexcept {
    assert(size_ <= capacity_ && head_ < capacity_);
    const std::size_t n = std::min(values.size(), capacity_ - size_);
    dropped_ += values.size() - n;
    if (n == 0) return;
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    const std::size_t first = std::min(n, capacity_ - tail);
    std::memcpy(buf_.get() + tail, values.data(), first * sizeof(u64));
    std::memcpy(buf_.get(), values.data() + first, (n - first) * sizeof(u64));
    size_ += n;
  }

  /// Move every entry into `dst`, oldest first, and leave this ring empty.
  /// `dst` ends with the contents and drop count a pop()/push() loop would
  /// give it. Returns the number of entries taken from this ring. Like
  /// drain(), this restarts the emptied ring at slot 0, so a ring emptied
  /// every interval reuses the same few cache lines and pages instead of
  /// walking its whole (lazily committed) capacity.
  std::size_t move_to(RingBuffer& dst) noexcept {
    assert(&dst != this);
    const std::size_t n = size_;
    const std::size_t first = std::min(n, capacity_ - head_);
    dst.append({buf_.get() + head_, first});
    dst.append({buf_.get(), n - first});
    clear();
    return n;
  }

  /// Drain everything (oldest first) into a vector.
  [[nodiscard]] std::vector<u64> drain() {
    std::vector<u64> out;
    out.reserve(size_);
    const std::size_t first = std::min(size_, capacity_ - head_);
    out.insert(out.end(), buf_.get() + head_, buf_.get() + head_ + first);
    out.insert(out.end(), buf_.get(), buf_.get() + (size_ - first));
    clear();
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }
  void reset_dropped() noexcept { dropped_ = 0; }

 private:
  struct Free {
    void operator()(u64* p) const noexcept { std::free(p); }
  };
  /// calloc, not a value-initialised vector: a large ring (the default SPML
  /// ring is 8 MiB per vCPU) comes from the OS already zeroed, so the host
  /// commits only the slots a run touches instead of clearing all of them
  /// whenever a VM is built.
  std::unique_ptr<u64[], Free> buf_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  u64 dropped_ = 0;
};

}  // namespace ooh

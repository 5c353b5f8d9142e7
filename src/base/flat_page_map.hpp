// Insertion-ordered open-addressed map from a page-aligned address to a
// u64 payload.
//
// Built for the guest process's "truth" ledger, which sits on the hot side
// of every simulated store: one insert-or-assign per write. A node-based
// unordered_map pays an allocation plus pointer chases per first touch of a
// page; this map keeps items in a dense vector (insertion order, swap-with-
// last erase) addressed by a power-of-two linear-probe index, so the
// steady-state re-dirty path is one hash and one probe with no allocation.
// Fully deterministic: no randomized hashing, growth points depend only on
// the insertion sequence. The SPML tracker's GPA -> GVA cache uses it too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/types.hpp"

namespace ooh {

class FlatPageMap {
 public:
  struct Item {
    Gva first = 0;   ///< page address (the key)
    u64 second = 0;  ///< payload (e.g. last-write sequence number)
  };
  using const_iterator = const Item*;

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return items_.data(); }
  [[nodiscard]] const_iterator end() const noexcept {
    return items_.data() + items_.size();
  }

  [[nodiscard]] bool contains(Gva page) const noexcept {
    return !index_.empty() && index_[locate(page)] != kEmpty;
  }

  /// The item keyed `page`, or end() when absent.
  [[nodiscard]] const_iterator find(Gva page) const noexcept {
    if (index_.empty()) return end();
    const u32 slot = index_[locate(page)];
    return slot == kEmpty ? end() : items_.data() + (slot - 1);
  }

  void insert_or_assign(Gva page, u64 value) {
    if (index_.empty() || (items_.size() + 1) * 4 > index_.size() * 3) grow();
    const std::size_t b = locate(page);
    if (index_[b] != kEmpty) {
      items_[index_[b] - 1].second = value;
      return;
    }
    items_.push_back({page, value});
    index_[b] = static_cast<u32>(items_.size());
  }

  void erase(Gva page) noexcept {
    if (index_.empty()) return;
    const std::size_t b = locate(page);
    if (index_[b] == kEmpty) return;
    const std::size_t pos = index_[b] - 1;
    erase_bucket(b);
    const std::size_t last = items_.size() - 1;
    if (pos != last) {
      items_[pos] = items_[last];
      index_[locate(items_[pos].first)] = static_cast<u32>(pos) + 1;
    }
    items_.pop_back();
  }

  /// Erase every item for which `pred(item)` holds.
  template <class Pred>
  void erase_if(Pred pred) {
    for (std::size_t i = 0; i < items_.size();) {
      if (pred(items_[i])) {
        erase(items_[i].first);  // swaps the last item into slot i
      } else {
        ++i;
      }
    }
  }

  void clear() noexcept {
    items_.clear();
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

 private:
  static constexpr u32 kEmpty = 0;  ///< index_ stores item pos + 1.

  [[nodiscard]] static u64 hash(Gva page) noexcept {
    const u64 h = page_index(page) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  }

  /// Bucket holding `page`, or the first empty bucket of its probe chain.
  [[nodiscard]] std::size_t locate(Gva page) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t b = static_cast<std::size_t>(hash(page)) & mask;
    while (index_[b] != kEmpty && items_[index_[b] - 1].first != page) {
      b = (b + 1) & mask;
    }
    return b;
  }

  /// Backward-shift deletion of bucket `b` (no tombstones).
  void erase_bucket(std::size_t b) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = b;
    std::size_t j = (b + 1) & mask;
    while (index_[j] != kEmpty) {
      const std::size_t home =
          static_cast<std::size_t>(hash(items_[index_[j] - 1].first)) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
      j = (j + 1) & mask;
    }
    index_[hole] = kEmpty;
  }

  void grow() {
    const std::size_t n = std::max<std::size_t>(64, index_.size() * 2);
    index_.assign(n, kEmpty);
    const std::size_t mask = n - 1;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::size_t b = static_cast<std::size_t>(hash(items_[i].first)) & mask;
      while (index_[b] != kEmpty) b = (b + 1) & mask;
      index_[b] = static_cast<u32>(i) + 1;
    }
  }

  std::vector<Item> items_;  ///< dense, insertion-ordered live items.
  std::vector<u32> index_;   ///< open-addressed page -> item pos + 1.
};

}  // namespace ooh

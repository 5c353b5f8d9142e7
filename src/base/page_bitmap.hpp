// Dense one-bit-per-4-KiB-page set over a bounded address range — KVM's
// memslot dirty_bitmap idiom — used to deduplicate dirty-page lists on the
// harvest path (hypervisor ring harvests, SPML collection) and as SPML's
// set of GPAs still waiting for a reverse mapping.
//
// A node-based unordered_set pays an allocation per first insert and hands
// its elements back in hash-bucket order. Here membership is one
// test-and-set per page, the caller keeps its own output list (so the order
// is whatever order the caller appended in — first-seen order under
// PageBitmap::Unique), and clearing touches only the words of the pages the
// caller lists: a reused instance costs O(pages) per harvest, never
// O(range). 5 GiB of guest-physical space is at most 160 KiB of bits, and
// only the words up to the highest page seen are ever allocated.
//
// Not thread-safe: one owner per instance (a VM's quiescent harvest, one
// tracker), never shared scratch.
#pragma once

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace ooh {

class PageBitmap {
 public:
  /// Covers addresses [0, limit_bytes). Words are allocated on demand up to
  /// the highest page set so far, so a bitmap over a large, sparsely used
  /// range costs only the words its pages need.
  explicit PageBitmap(u64 limit_bytes = 0) : limit_(limit_bytes) {}

  /// Set the bit of the page holding `addr`; true when it was clear.
  /// Throws std::out_of_range for an address at or beyond limit_bytes.
  bool test_and_set(u64 addr) {
    if (addr >= limit_) throw_out_of_range(addr);
    const u64 page = page_index(addr);
    if ((page >> 6) >= words_.size()) grow(page >> 6);
    u64& word = words_[page >> 6];
    const u64 bit = u64{1} << (page & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// Clear the bit of the page holding `addr`; true when it was set. An
  /// address past the allocated words (or the range) was never set.
  bool test_and_clear(u64 addr) noexcept {
    const u64 page = page_index(addr);
    if ((page >> 6) >= words_.size()) return false;
    u64& word = words_[page >> 6];
    const u64 bit = u64{1} << (page & 63);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    return true;
  }

  /// Clear the bits of the pages holding `addrs`; costs O(addrs.size()).
  void reset(std::span<const u64> addrs) noexcept {
    for (const u64 addr : addrs) {
      const u64 page = page_index(addr);
      if ((page >> 6) < words_.size()) words_[page >> 6] &= ~(u64{1} << (page & 63));
    }
  }

  /// True when no bit is set. O(words): for tests and assertions only.
  [[nodiscard]] bool none() const noexcept {
    for (const u64 word : words_) {
      if (word != 0) return false;
    }
    return true;
  }

  class Unique;

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void throw_out_of_range(u64 addr) const {
    throw std::out_of_range("page address " + std::to_string(addr) +
                            " past the bitmap's " + std::to_string(limit_) +
                            "-byte range");
  }

  /// Make word `w` addressable: at least double, never past the range.
  [[gnu::noinline]] void grow(u64 w) {
    const u64 cap = (pages_for_bytes(limit_) + 63) / 64;
    words_.resize(std::min(cap, std::max(w + 1, 2 * words_.size())));
  }

  u64 limit_;
  std::vector<u64> words_;
};

/// Deduplicating appender: add() appends a page address to `out` the first
/// time its page is seen, so `out` keeps first-seen order. Pages already in
/// `out` count as seen. The bitmap must start empty; the destructor clears
/// exactly the bits of `out`, leaving it empty again even when an add()
/// threw.
class PageBitmap::Unique {
 public:
  Unique(PageBitmap& bits, std::vector<u64>& out) : bits_(bits), out_(out) {
    try {
      for (const u64 addr : out_) bits_.test_and_set(addr);
    } catch (...) {
      bits_.reset(out_);
      throw;
    }
  }
  ~Unique() { bits_.reset(out_); }

  Unique(const Unique&) = delete;
  Unique& operator=(const Unique&) = delete;

  /// Append `addr` unless its page was seen; true when appended.
  bool add(u64 addr) {
    if (!bits_.test_and_set(addr)) return false;
    out_.push_back(addr);
    return true;
  }

 private:
  PageBitmap& bits_;
  std::vector<u64>& out_;
};

/// Sort `pages` ascending and drop duplicates, as std::sort + std::unique
/// would. When every entry is page-aligned and [min, max] spans at most
/// about two words of bits per page, one bit per page in `words` (a buffer
/// the caller reuses) orders them in O(pages + words), and a word scan reads
/// them back; a sparser span, or an unaligned entry, sorts.
inline void sort_unique_pages(std::vector<u64>& pages, std::vector<u64>& words) {
  if (pages.size() < 2) return;
  u64 lo = pages.front();
  u64 hi = lo;
  u64 offsets = 0;
  for (const u64 p : pages) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
    offsets |= p;
  }
  const u64 span_words = ((hi - lo) >> kPageShift) / 64 + 1;
  if (page_offset(offsets) != 0 || span_words > 2 * pages.size()) {
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    return;
  }
  words.assign(span_words, 0);
  for (const u64 p : pages) {
    const u64 bit = (p - lo) >> kPageShift;
    words[bit >> 6] |= u64{1} << (bit & 63);
  }
  pages.clear();
  for (u64 w = 0; w < span_words; ++w) {
    for (u64 word = words[w]; word != 0; word &= word - 1) {
      pages.push_back(lo + ((w * 64 + static_cast<u64>(std::countr_zero(word))) << kPageShift));
    }
  }
}

}  // namespace ooh

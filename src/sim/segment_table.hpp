// Range-based guest translation: the segmentation alternative of
// Teabe/Tchana ("Memory virtualization in virtualized systems: segmentation
// is better than paging", PAPERS.md), slotted behind the same Mmu walk seam
// as the radix tables.
//
// A segment maps a contiguous run of GVAs onto a contiguous run of GPAs and
// carries ONE set of PTE flags for the whole run. Translation is a binary
// search instead of a 4-level walk; the price is metadata granularity —
// accessed/dirty/soft-dirty are per-segment, so dirty tracking over this
// backend reports supersets (every page of a touched segment). That
// precision trade is exactly what the kSeg technique measures.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "base/types.hpp"
#include "sim/page_table_entry.hpp"

namespace ooh::sim {

struct Segment {
  Gva gva_base = 0;  ///< page-aligned start of the run.
  Gpa gpa_base = 0;  ///< page-aligned GPA the first page maps to.
  u64 pages = 0;     ///< run length in 4 KiB pages.
  Pte pte;           ///< shared flags; pte.gpa_page mirrors gpa_base.

  [[nodiscard]] Gva gva_end() const noexcept { return gva_base + pages * kPageSize; }
  [[nodiscard]] bool covers(Gva gva_page) const noexcept {
    return gva_page >= gva_base && gva_page < gva_end();
  }
  [[nodiscard]] Gpa gpa_of(Gva gva_page) const noexcept {
    return gpa_base + (gva_page - gva_base);
  }
};

class SegmentTable {
 public:
  /// Segment covering `gva_page`, or nullptr. Binary search with an MRU
  /// memo — the segment analogue of the radix walk cache.
  [[nodiscard]] Segment* find(Gva gva_page) noexcept {
    if (mru_ < segs_.size() && segs_[mru_].covers(gva_page)) return &segs_[mru_];
    const auto it = std::upper_bound(
        segs_.begin(), segs_.end(), gva_page,
        [](Gva gva, const Segment& s) { return gva < s.gva_base; });
    if (it == segs_.begin()) return nullptr;
    Segment& s = *std::prev(it);
    if (!s.covers(gva_page)) return nullptr;
    mru_ = static_cast<std::size_t>(&s - segs_.data());
    return &s;
  }
  [[nodiscard]] const Segment* find(Gva gva_page) const noexcept {
    return const_cast<SegmentTable*>(this)->find(gva_page);
  }

  /// Map one page, coalescing with the preceding segment when both address
  /// spaces stay contiguous and the write permission matches (the new page
  /// inherits the run's sticky accessed/dirty metadata — the documented
  /// precision trade).
  void map(Gva gva_page, Gpa gpa_page, bool writable) {
    assert(is_page_aligned(gva_page) && is_page_aligned(gpa_page));
    assert(find(gva_page) == nullptr && "segment overlap");
    const auto it = std::upper_bound(
        segs_.begin(), segs_.end(), gva_page,
        [](Gva gva, const Segment& s) { return gva < s.gva_base; });
    if (it != segs_.begin()) {
      Segment& prev = *std::prev(it);
      if (prev.gva_end() == gva_page && prev.gpa_of(gva_page) == gpa_page &&
          prev.pte.writable == writable) {
        ++prev.pages;
        ++present_pages_;
        return;
      }
    }
    Segment s;
    s.gva_base = gva_page;
    s.gpa_base = gpa_page;
    s.pages = 1;
    s.pte.gpa_page = gpa_page;
    s.pte.present = true;
    s.pte.writable = writable;
    s.pte.user = true;
    mru_ = static_cast<std::size_t>(segs_.insert(it, s) - segs_.begin());
    ++present_pages_;
  }

  /// Unmap one page: shrink an edge or split the run in two (both halves
  /// keep the shared flags).
  void unmap(Gva gva_page) {
    Segment* s = find(gva_page);
    if (s == nullptr) return;
    const auto idx = static_cast<std::size_t>(s - segs_.data());
    --present_pages_;
    mru_ = 0;
    if (s->pages == 1) {
      segs_.erase(segs_.begin() + static_cast<std::ptrdiff_t>(idx));
      return;
    }
    if (gva_page == s->gva_base) {
      s->gva_base += kPageSize;
      s->gpa_base += kPageSize;
      s->pte.gpa_page = s->gpa_base;
      --s->pages;
      return;
    }
    if (gva_page == s->gva_end() - kPageSize) {
      --s->pages;
      return;
    }
    Segment tail = *s;
    tail.gva_base = gva_page + kPageSize;
    tail.gpa_base = s->gpa_of(tail.gva_base);
    tail.pte.gpa_page = tail.gpa_base;
    tail.pages = (s->gva_end() - tail.gva_base) / kPageSize;
    s->pages = (gva_page - s->gva_base) / kPageSize;
    segs_.insert(segs_.begin() + static_cast<std::ptrdiff_t>(idx) + 1, tail);
  }

  [[nodiscard]] u64 present_pages() const noexcept { return present_pages_; }
  [[nodiscard]] std::size_t segment_count() const noexcept { return segs_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept { return segs_; }

  /// Visit each segment as fn(Segment&).
  template <typename Fn>
  void for_each_segment(Fn&& fn) {
    for (Segment& s : segs_) fn(s);
  }

  /// GRAN-1, segment form: sorted, non-overlapping, internally consistent.
  [[nodiscard]] bool coherent() const noexcept {
    Gva prev_end = 0;
    for (const Segment& s : segs_) {
      if (s.pages == 0 || !s.pte.present || s.pte.gpa_page != s.gpa_base) return false;
      if (s.gva_base < prev_end) return false;
      prev_end = s.gva_end();
    }
    return true;
  }

  /// Test-only corruption hook: slide the second segment back into the
  /// first so the GRAN-1 mutation test can prove the oracle notices.
  void debug_overlap_segments() noexcept {
    if (segs_.size() >= 2 && segs_[0].pages > 0) {
      segs_[1].gva_base = segs_[0].gva_end() - kPageSize;
    }
  }

 private:
  std::vector<Segment> segs_;  // sorted by gva_base, non-overlapping
  u64 present_pages_ = 0;
  mutable std::size_t mru_ = 0;
};

}  // namespace ooh::sim

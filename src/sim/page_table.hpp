// Guest page table: per-process GVA -> GPA mapping with the PTE bits the
// paper's tracking techniques manipulate (see page_table_entry.hpp).
//
// Two translation backends sit behind one walk seam:
//   kRadix   — 4-level radix with PS-bit leaves at 4 KiB / 2 MiB / 1 GiB.
//   kSegment — range-based SegmentTable (Teabe/Tchana), converted from the
//              radix state by convert_to_segments(); per-segment flags.
// The Mmu resolves translations through lookup(), which normalises both
// backends (and every leaf granularity) to a per-4 KiB translated GPA.
#pragma once

#include <memory>

#include "base/types.hpp"
#include "sim/page_table_entry.hpp"
#include "sim/radix.hpp"
#include "sim/segment_table.hpp"

namespace ooh::sim {

enum class TranslationBackend : u8 { kRadix, kSegment };

class GuestPageTable {
 public:
  /// One resolved walk step: the leaf (shared per region for huge leaves
  /// and segments), its granularity, and the 4 KiB-page GPA computed for
  /// the queried GVA. `pte` is null when no mapping covers the address.
  struct Lookup {
    Pte* pte = nullptr;
    PageGran gran = PageGran::k4K;
    Gpa gpa_page = 0;
  };

  /// Install a present 4 KiB mapping gva_page -> gpa_page (page-aligned).
  void map(Gva gva_page, Gpa gpa_page, bool writable);
  void unmap(Gva gva_page);

  /// Install a present PS-bit leaf of granularity `gran` mapping the
  /// 2 MiB / 1 GiB region at gva_base onto the GPA-contiguous run at
  /// gpa_base. Radix backend only. The caller keeps GRAN-1: no present
  /// 4 KiB entries may exist beneath (the audit, not this method, checks).
  void map_huge(Gva gva_base, Gpa gpa_base, PageGran gran, bool writable);
  void unmap_huge(Gva gva_base, PageGran gran);

  [[nodiscard]] Pte* pte(Gva gva) noexcept {
    if (backend_ == TranslationBackend::kSegment) {
      Segment* s = segs_->find(page_floor(gva));
      return s != nullptr ? &s->pte : nullptr;
    }
    if (!table_.has_huge()) return table_.find(page_floor(gva));
    PageGran g;
    return table_.find_leaf(page_floor(gva), g);
  }
  [[nodiscard]] const Pte* pte(Gva gva) const noexcept {
    return const_cast<GuestPageTable*>(this)->pte(gva);
  }

  /// The walk seam: resolve `gva` through whichever backend/granularity
  /// covers it, with the per-4 KiB GPA already computed.
  [[nodiscard]] Lookup lookup(Gva gva) noexcept {
    const Gva page = page_floor(gva);
    if (backend_ == TranslationBackend::kSegment) {
      Segment* s = segs_->find(page);
      if (s == nullptr) return {};
      return {&s->pte, PageGran::k4K, s->gpa_of(page)};
    }
    if (!table_.has_huge()) {
      Pte* e = table_.find(page);
      if (e == nullptr) return {};
      return {e, PageGran::k4K, e->gpa_page};
    }
    PageGran g;
    Pte* e = table_.find_leaf(page, g);
    if (e == nullptr) return {};
    return {e, g, e->gpa_page + gran_offset(page, g)};
  }

  /// Visit every *present* leaf as fn(gva_page, Pte&). Huge leaves and
  /// segments are visited once per covered 4 KiB page with the shared Pte,
  /// so flag-mutating consumers (clear_refs) stay backend-agnostic.
  template <typename Fn>
  void for_each_present(Fn&& fn) {
    if (backend_ == TranslationBackend::kSegment) {
      segs_->for_each_segment([&](Segment& s) {
        for (u64 i = 0; i < s.pages; ++i) fn(s.gva_base + i * kPageSize, s.pte);
      });
      return;
    }
    if (!table_.has_huge()) {
      table_.for_each([&](u64 addr, Pte& e) {
        if (e.present) fn(addr, e);
      });
      return;
    }
    table_.for_each_leaf([&](u64 addr, Pte& e, PageGran g) {
      if (!e.present) return;
      for (u64 i = 0; i < gran_pages(g); ++i) fn(addr + i * kPageSize, e);
    });
  }

  /// Per-4 KiB view with the translated GPA computed per page — what the
  /// coherence audits (PT-1/PT-2) and pagemap re-derive from.
  template <typename Fn>
  void for_each_mapping(Fn&& fn) {
    if (backend_ == TranslationBackend::kSegment) {
      segs_->for_each_segment([&](Segment& s) {
        for (u64 i = 0; i < s.pages; ++i) {
          fn(s.gva_base + i * kPageSize, static_cast<const Pte&>(s.pte),
             s.gpa_base + i * kPageSize);
        }
      });
      return;
    }
    table_.for_each_leaf([&](u64 addr, Pte& e, PageGran g) {
      if (!e.present) return;
      for (u64 i = 0; i < gran_pages(g); ++i) {
        fn(addr + i * kPageSize, static_cast<const Pte&>(e),
           e.gpa_page + i * kPageSize);
      }
    });
  }

  /// Leaf-granularity view (radix backend): fn(base, Pte&, gran) for every
  /// present leaf, huge leaves NOT expanded. The GRAN-1 audit walks this.
  template <typename Fn>
  void for_each_leaf_present(Fn&& fn) {
    if (backend_ == TranslationBackend::kSegment) return;
    table_.for_each_leaf([&](u64 addr, Pte& e, PageGran g) {
      if (e.present) fn(addr, e, g);
    });
  }

  [[nodiscard]] u64 present_pages() const noexcept {
    return backend_ == TranslationBackend::kSegment ? segs_->present_pages()
                                                    : present_pages_;
  }

  // ---- segment backend ------------------------------------------------------
  [[nodiscard]] TranslationBackend backend() const noexcept { return backend_; }
  [[nodiscard]] SegmentTable* segment_table() noexcept { return segs_.get(); }
  [[nodiscard]] const SegmentTable* segment_table() const noexcept {
    return segs_.get();
  }
  /// Rebuild the table as segments coalesced from the present radix PTEs
  /// (contiguous GVA+GPA runs with identical flags merge — identical-only,
  /// so every TLB-cached derivation stays true across the conversion).
  /// Subsequent map/unmap calls operate on the segment table. Radix huge
  /// leaves must be split (or absent) first.
  void convert_to_segments();

  // ---- paging-structure walk cache (see RadixTable4) -------------------------
  void invalidate_walk_cache() const noexcept { table_.invalidate_walk_cache(); }
  [[nodiscard]] bool walk_cache_coherent() const noexcept {
    return backend_ == TranslationBackend::kSegment || table_.walk_cache_coherent();
  }
  /// Test-only: corrupt the walk cache so WALK-1 mutation tests can prove
  /// the coherence oracle notices.
  void debug_skew_walk_cache() noexcept { table_.debug_skew_walk_cache(); }

 private:
  RadixTable4<Pte> table_;
  std::unique_ptr<SegmentTable> segs_;
  TranslationBackend backend_ = TranslationBackend::kRadix;
  u64 present_pages_ = 0;
};

}  // namespace ooh::sim

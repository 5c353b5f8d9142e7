// Extended Page Table: per-VM GPA -> HPA mapping with accessed/dirty flags.
//
// Intel PML's trigger point lives here: a write that sets an EPT entry's
// dirty flag during the nested walk logs the GPA to the PML buffer
// (SDM Vol. 3C, "Page-Modification Logging"). Leaves may sit at 4 KiB or,
// PS-bit style, at 2 MiB / 1 GiB; a huge leaf has ONE dirty flag for the
// whole region, which is exactly the precision loss eager page splitting
// (Ept::split_huge_leaf, driven by the hypervisor when dirty logging
// starts) exists to remove.
//
// The EPT is the one table the N vCPUs of an SMP guest share; they all run
// on the thread that owns the VM, so no table access is locked.
#pragma once

#include "base/types.hpp"
#include "sim/radix.hpp"

namespace ooh::sim {

struct EptEntry {
  Hpa hpa_page = 0;  ///< granularity-aligned HPA base.
  bool present : 1 = false;
  bool writable : 1 = false;
  bool accessed : 1 = false;
  bool dirty : 1 = false;
  /// Intel SPP: writes consult the sub-page permission table (sim/spp.hpp).
  bool spp : 1 = false;
};

class Ept {
 public:
  /// One resolved nested-walk step: the leaf (shared for huge regions), its
  /// granularity, and the 4 KiB-page HPA computed for the queried GPA.
  struct Lookup {
    EptEntry* entry = nullptr;
    PageGran gran = PageGran::k4K;
    Hpa hpa_page = 0;
  };

  void map(Gpa gpa_page, Hpa hpa_page, bool writable = true);
  void unmap(Gpa gpa_page);

  /// Install a present PS-bit leaf mapping the `gran`-sized region at
  /// gpa_base onto the HPA-contiguous run at hpa_base. The caller keeps
  /// GRAN-1 (no present smaller leaves beneath).
  void map_huge(Gpa gpa_base, Hpa hpa_base, PageGran gran, bool writable = true);
  void unmap_huge(Gpa gpa_base, PageGran gran);

  /// Shatter the huge leaf covering `gpa` into 512 present children one
  /// granularity down (1G -> 2M, 2M -> 4K), each inheriting the parent's
  /// permission and accessed/dirty/spp flags and mapping its slice of the
  /// parent's contiguous HPA run — KVM's eager-page-split primitive.
  /// Returns the number of children created (0 if no huge leaf covers gpa).
  /// Callers owe the EPT-side TLB shootdown, like unmap.
  u64 split_huge_leaf(Gpa gpa, PageGran gran);

  /// Leaf covering `gpa` at any granularity (PS-bit walk order: 1G, 2M,
  /// then 4K). For a huge leaf the entry's hpa_page is the region base.
  /// Here and in lookup() and for_each_present(), a table with no present
  /// huge leaf takes the 4 KiB-only path: huge slabs outlive the leaves an
  /// eager split removed, but without a present leaf they shadow nothing.
  [[nodiscard]] EptEntry* entry(Gpa gpa) noexcept {
    const Gpa page = page_floor(gpa);
    if (huge_present_ == 0) return table_.find(page);
    PageGran g;
    return table_.find_leaf(page, g);
  }
  [[nodiscard]] const EptEntry* entry(Gpa gpa) const noexcept {
    return const_cast<Ept*>(this)->entry(gpa);
  }

  /// The nested-walk seam: leaf + granularity + per-4 KiB HPA for `gpa`.
  [[nodiscard]] Lookup lookup(Gpa gpa) noexcept {
    const Gpa page = page_floor(gpa);
    if (huge_present_ == 0) {
      EptEntry* e = table_.find(page);
      if (e == nullptr) return {};
      return {e, PageGran::k4K, e->hpa_page};
    }
    PageGran g;
    EptEntry* e = table_.find_leaf(page, g);
    if (e == nullptr) return {};
    return {e, g, e->hpa_page + gran_offset(page, g)};
  }

  /// GPA -> HPA for a present mapping; returns false when unmapped.
  [[nodiscard]] bool translate(Gpa gpa, Hpa& out) const noexcept;

  /// True when no present leaf (of any size) intersects the `gran`-sized
  /// region at `base` — the precondition map_huge's GRAN-1 contract needs.
  [[nodiscard]] bool range_unmapped(Gpa base, PageGran gran) noexcept;

  /// Visit every present leaf as fn(gpa_page, EptEntry&), huge leaves once
  /// per covered 4 KiB page with the shared entry (flag mutators stay
  /// granularity-agnostic; a huge region's flags clear once, as hardware's
  /// single leaf flag would).
  template <typename Fn>
  void for_each_present(Fn&& fn) {
    if (huge_present_ == 0) {
      table_.for_each([&](u64 addr, EptEntry& e) {
        if (e.present) fn(addr, e);
      });
      return;
    }
    table_.for_each_leaf([&](u64 addr, EptEntry& e, PageGran g) {
      if (!e.present) return;
      for (u64 i = 0; i < gran_pages(g); ++i) fn(addr + i * kPageSize, e);
    });
  }

  /// Leaf-granularity view: fn(base, EptEntry&, gran) per present leaf,
  /// huge leaves NOT expanded — the GRAN-1 audit and the eager-split sweep.
  template <typename Fn>
  void for_each_leaf_present(Fn&& fn) {
    table_.for_each_leaf([&](u64 addr, EptEntry& e, PageGran g) {
      if (e.present) fn(addr, e, g);
    });
  }

  /// Per-4 KiB view with the HPA computed per page — what the frame-
  /// ownership audits re-derive from.
  template <typename Fn>
  void for_each_mapping(Fn&& fn) {
    table_.for_each_leaf([&](u64 addr, EptEntry& e, PageGran g) {
      if (!e.present) return;
      for (u64 i = 0; i < gran_pages(g); ++i) {
        fn(addr + i * kPageSize, static_cast<const EptEntry&>(e),
           e.hpa_page + i * kPageSize, g);
      }
    });
  }

  /// Present pages in 4 KiB units (a 2 MiB leaf counts 512).
  [[nodiscard]] u64 present_pages() const noexcept { return present_pages_; }
  /// Present PS-bit leaves — zero while an eager-split session is closed
  /// (SPLIT-1).
  [[nodiscard]] u64 huge_leaves() const noexcept { return huge_present_; }

  // ---- paging-structure walk cache (see RadixTable4) -------------------------
  void invalidate_walk_cache() const noexcept {
    table_.invalidate_walk_cache();
  }
  [[nodiscard]] bool walk_cache_coherent() const noexcept {
    return table_.walk_cache_coherent();
  }
  /// Test-only: corrupt the walk cache so WALK-1 mutation tests can prove
  /// the coherence oracle notices.
  void debug_skew_walk_cache() noexcept { table_.debug_skew_walk_cache(); }

 private:
  RadixTable4<EptEntry> table_;
  u64 present_pages_ = 0;
  u64 huge_present_ = 0;
};

}  // namespace ooh::sim

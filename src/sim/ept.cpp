#include "sim/ept.hpp"

#include <cassert>

namespace ooh::sim {

void Ept::map(Gpa gpa_page, Hpa hpa_page, bool writable) {
  assert(is_page_aligned(gpa_page) && is_page_aligned(hpa_page));
  EptEntry& e = table_.ensure(gpa_page);
  if (!e.present) ++present_pages_;
  e = EptEntry{};
  e.hpa_page = hpa_page;
  e.present = true;
  e.writable = writable;
}

void Ept::unmap(Gpa gpa_page) {
  EptEntry* e = table_.find(page_floor(gpa_page));
  if (e != nullptr && e->present) {
    *e = EptEntry{};
    --present_pages_;
    // Structural invalidation point, mirroring the EPT-side TLB shootdown.
    table_.invalidate_walk_cache();
  }
}

void Ept::map_huge(Gpa gpa_base, Hpa hpa_base, PageGran gran, bool writable) {
  // The HPA run must be frame-contiguous but only 4 KiB-aligned: the
  // frame-granular bump allocator hands out contiguous runs at arbitrary
  // frame boundaries, and every simulated address computation is
  // base-plus-offset (hardware's bits-20:12-zero rule is an encoding
  // detail with no behavioural analogue here).
  assert(gran != PageGran::k4K && is_gran_aligned(gpa_base, gran) &&
         is_page_aligned(hpa_base));
  EptEntry& e = table_.ensure_huge(gpa_base, gran);
  if (!e.present) {
    present_pages_ += gran_pages(gran);
    ++huge_present_;
  }
  e = EptEntry{};
  e.hpa_page = hpa_base;
  e.present = true;
  e.writable = writable;
}

void Ept::unmap_huge(Gpa gpa_base, PageGran gran) {
  EptEntry* e = table_.find_huge(gran_floor(gpa_base, gran), gran);
  if (e != nullptr && e->present) {
    *e = EptEntry{};
    present_pages_ -= gran_pages(gran);
    --huge_present_;
    table_.invalidate_walk_cache();
  }
}

u64 Ept::split_huge_leaf(Gpa gpa, PageGran gran) {
  assert(gran != PageGran::k4K);
  const Gpa base = gran_floor(gpa, gran);
  EptEntry* e = table_.find_huge(base, gran);
  if (e == nullptr || !e->present) return 0;
  const EptEntry parent = *e;
  *e = EptEntry{};
  --huge_present_;
  const PageGran child =
      gran == PageGran::k1G ? PageGran::k2M : PageGran::k4K;
  const u64 child_size = gran_size(child);
  for (u64 i = 0; i < kRadixFanout; ++i) {
    EptEntry& c = child == PageGran::k4K
                      ? table_.ensure(base + i * child_size)
                      : table_.ensure_huge(base + i * child_size, child);
    c = parent;
    c.hpa_page = parent.hpa_page + i * child_size;
  }
  if (child != PageGran::k4K) huge_present_ += kRadixFanout;
  // present_pages_ is unchanged: same 4 KiB-equivalents, finer leaves.
  // The split replaces a leaf like an unmap structurally.
  table_.invalidate_walk_cache();
  return kRadixFanout;
}

bool Ept::range_unmapped(Gpa base, PageGran gran) noexcept {
  if (present_pages_ == 0) return true;  // first touch: nothing anywhere
  // A larger (or equal) leaf covering the region?
  for (const PageGran g : {PageGran::k1G, PageGran::k2M}) {
    EptEntry* e = table_.find_huge(gran_floor(base, g), g);
    if (e != nullptr && e->present) return false;
  }
  // Smaller leaves inside it?
  if (gran == PageGran::k1G) {
    for (u64 i = 0; i < kRadixFanout; ++i) {
      EptEntry* e = table_.find_huge(base + i * gran_size(PageGran::k2M),
                                     PageGran::k2M);
      if (e != nullptr && e->present) return false;
    }
  }
  for (u64 i = 0; i < gran_pages(gran); ++i) {
    EptEntry* e = table_.find(base + i * kPageSize);
    if (e != nullptr && e->present) return false;
  }
  return true;
}

bool Ept::translate(Gpa gpa, Hpa& out) const noexcept {
  const Ept::Lookup lu = const_cast<Ept*>(this)->lookup(gpa);
  if (lu.entry == nullptr || !lu.entry->present) return false;
  out = lu.hpa_page | page_offset(gpa);
  return true;
}

}  // namespace ooh::sim

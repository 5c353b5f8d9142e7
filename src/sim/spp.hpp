// Intel SPP (Sub-Page write Permission) model.
//
// SPP lets the hypervisor write-protect 128-byte sub-pages: an EPT leaf is
// marked sub-page-protected and the SPP table supplies a 32-bit write-allow
// mask (one bit per sub-page of the 4KiB page). Writes to a cleared bit
// raise an SPP-violation VM-exit; writes to set bits proceed fault-free.
//
// The paper's §III-D proposes exposing SPP through OoH so guest heap
// allocators can place 128-byte guard redzones instead of 4KiB guard pages
// (a 32x waste reduction); this module is the hardware half of that.
#pragma once

#include <unordered_map>

#include "base/types.hpp"

namespace ooh::sim {

inline constexpr u64 kSubPageShift = 7;
inline constexpr u64 kSubPageSize = u64{1} << kSubPageShift;        // 128 B
inline constexpr u64 kSubPagesPerPage = kPageSize / kSubPageSize;   // 32

[[nodiscard]] constexpr u32 subpage_index(u64 addr) noexcept {
  return static_cast<u32>(page_offset(addr) >> kSubPageShift);
}

/// Mask with every sub-page writable.
inline constexpr u32 kSppAllWritable = 0xFFFF'FFFFu;

class SppTable {
 public:
  /// Install (or replace) the write-allow mask for a guest-physical page.
  void set_mask(Gpa gpa_page, u32 write_mask) {
    masks_[page_floor(gpa_page)] = write_mask;
  }
  void clear(Gpa gpa_page) { masks_.erase(page_floor(gpa_page)); }

  /// Write-allow mask for the page; all-writable when never configured.
  [[nodiscard]] u32 mask(Gpa gpa_page) const noexcept {
    const auto it = masks_.find(page_floor(gpa_page));
    return it == masks_.end() ? kSppAllWritable : it->second;
  }

  [[nodiscard]] bool write_allowed(Gpa gpa) const noexcept {
    return (mask(gpa) >> subpage_index(gpa)) & 1u;
  }

  [[nodiscard]] std::size_t configured_pages() const noexcept { return masks_.size(); }

 private:
  std::unordered_map<Gpa, u32> masks_;
};

}  // namespace ooh::sim

// Guest swap daemon -- the guest kernel's own dirty-page-tracking use from
// the paper's introduction: "the guest kernel tracks dirty pages to know if
// a file-backed memory page should be copied to disk when swapped out".
//
// Eviction runs a clock (second-chance) sweep over the accessed bits; a
// victim whose PTE dirty flag is clear is dropped for free, a dirty victim
// pays a writeback. Swapped-out pages fault back in on the next touch with
// their contents restored.
#pragma once

#include <unordered_map>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "guest/process.hpp"

namespace ooh::guest {

class GuestKernel;

class SwapDaemon {
 public:
  explicit SwapDaemon(GuestKernel& kernel) : kernel_(kernel) {}

  struct EvictStats {
    u64 scanned = 0;
    u64 evicted_clean = 0;   ///< dropped without I/O (dirty flag clear).
    u64 evicted_dirty = 0;   ///< written back first.
    VirtDuration time{0};
  };

  /// Evict up to `target_pages` resident pages of `proc`.
  EvictStats evict(Process& proc, u64 target_pages);

  /// Pages of `proc` currently swapped out.
  [[nodiscard]] u64 swapped_out(const Process& proc) const;

  // ---- kernel fault-path entry point ----------------------------------------
  /// True if `gva_page` was swapped out; swaps it back in (maps a fresh
  /// frame, restores contents, charges the swap-in read).
  bool swap_in_if_needed(Process& proc, Gva gva_page);

 private:
  struct Slot {
    std::vector<u8> content;  ///< empty for metadata-only pages.
    bool was_soft_dirty = false;
  };
  /// (pid, gva_page) -> swap slot.
  std::unordered_map<u64, Slot> slots_;
  static u64 key(u32 pid, Gva gva_page) noexcept {
    return (static_cast<u64>(pid) << 40) | page_index(gva_page);
  }
  /// Clock hand per process, for the second-chance sweep.
  std::unordered_map<u32, Gva> clock_hand_;

  GuestKernel& kernel_;
};

}  // namespace ooh::guest

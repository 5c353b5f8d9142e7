// /proc/<PID>/{clear_refs,pagemap} -- Linux's soft-dirty interface, the
// default technique in both CRIU and Boehm GC (paper §III-B).
//
//   clear_refs: clears soft-dirty bits and write-protects the PTEs so the
//               next store faults; the fault handler re-sets soft-dirty.
//   pagemap:    userspace scans bit 55 of every PTE to collect dirty pages.
#pragma once

#include <vector>

#include "base/types.hpp"
#include "guest/process.hpp"
#include "sim/page_table.hpp"
#include "sim/page_track.hpp"

namespace ooh::guest {

class GuestKernel;

/// Registered on the kGuestWpFault layer after the userfaultfd notifier:
/// the soft-dirty fault handler is the fallback for write-protect faults no
/// earlier consumer claimed (Linux's own write-protect fault policy).
class ProcFs final : public sim::PageTrackNotifier {
 public:
  explicit ProcFs(GuestKernel& kernel) : kernel_(kernel) {}

  /// `echo 4 > /proc/PID/clear_refs` (Table V metric M15 + TLB flush).
  void clear_refs(Process& proc);

  /// Scan /proc/PID/pagemap for soft-dirty pages (metric M16), in page-table
  /// walk order (DirtyTracker::collect sorts every backend's output).
  [[nodiscard]] std::vector<Gva> pagemap_dirty(Process& proc);

  /// Stream every present GVA -> GPA translation, as pagemap exposes them,
  /// to fn(gva_page, gpa_page) in page-table walk order; nothing is copied.
  /// The GPA is the 4 KiB page's own, even where a huge leaf or a segment
  /// run shares one Pte. The cost is charged by the caller (SPML charges it
  /// as its reverse-mapping scan, M16/M17).
  template <typename Fn>
  void pagemap_for_each(Process& proc, Fn&& fn) {
    page_table(proc).for_each_mapping(
        [&fn](Gva gva, const sim::Pte&, Gpa gpa) { fn(gva, gpa); });
  }

  // ---- sim::PageTrackNotifier (kGuestWpFault) -------------------------------
  /// Soft-dirty fault: set the bit, restore write access, invalidate the
  /// cached translation (Table V metric M5 plus two world switches).
  bool on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) override;

 private:
  /// The kernel's page table of `proc` (out of line: kernel.hpp is not
  /// included here).
  [[nodiscard]] sim::GuestPageTable& page_table(Process& proc);

  GuestKernel& kernel_;
};

}  // namespace ooh::guest

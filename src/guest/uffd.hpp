// userfaultfd clone: miss and write_protect modes (paper §III-A).
//
// Faults on registered ranges suspend the faulting process and synchronously
// run the Tracker's handler (they time-share one CPU); the handler records
// the address and write-unprotects the page, which resumes the Tracked.
#pragma once

#include <functional>
#include <unordered_map>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "guest/process.hpp"
#include "sim/page_track.hpp"

namespace ooh::guest {

class GuestKernel;

/// Registered on the kGuestWpFault layer (ahead of the soft-dirty handler):
/// it claims exactly the faults whose PTE carries the uffd_wp marker.
class Uffd final : public sim::PageTrackNotifier {
 public:
  explicit Uffd(GuestKernel& kernel) : kernel_(kernel) {}

  /// Tracker-side handler, run while the faulting process is suspended.
  using Handler = std::function<void(Gva page)>;

  /// Register every VMA of `proc` for write-protect notifications and
  /// write-protect all present PTEs (ioctl register + wp; metric M2).
  /// If `tracker_bucket` is non-null, the time spent servicing each fault in
  /// userspace is also attributed to it (Table I's "On Tracker" column).
  void register_wp(Process& proc, Handler on_fault,
                   VirtDuration* tracker_bucket = nullptr);

  /// Register for missing-page (first touch) notifications.
  void register_missing(Process& proc, Handler on_fault);

  /// Re-write-protect the registered range for a new tracking interval.
  void rearm_wp(Process& proc);

  void unregister(Process& proc);
  [[nodiscard]] bool wp_registered(const Process& proc) const;
  [[nodiscard]] bool missing_registered(const Process& proc) const;

  // ---- kernel fault-path entry points ---------------------------------------
  /// Deliver a write-protect fault; resolves (unprotects) before returning.
  void deliver_wp_fault(Process& proc, Gva gva_page);
  /// Deliver a missing fault (before the kernel maps the page).
  void deliver_missing_fault(Process& proc, Gva gva_page);

  // ---- sim::PageTrackNotifier (kGuestWpFault) -------------------------------
  /// Handles the fault iff the PTE carries the uffd_wp marker: deliver to
  /// the registered tracker, or clear a marker left by a torn-down
  /// registration. Returns false (unhandled) otherwise.
  bool on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) override;

 private:
  struct Registration {
    Handler on_wp;
    Handler on_missing;
    VirtDuration* tracker_bucket = nullptr;
  };
  GuestKernel& kernel_;
  std::unordered_map<u32, Registration> regs_;
};

}  // namespace ooh::guest

// The OoH userspace library: a unified dirty-page tracker API over the four
// techniques the paper compares (/proc, userfaultfd, SPML, EPML), a
// KVM-page_track-style write-protection backend (wp), segment-table
// soft-dirty (seg), and an oracle (zero-cost ground truth, the hypothetical
// technique of §VI-B).
//
// Tracker lifecycle:
//     init()            one-time setup (ufd registration, OoH PML init)
//     begin_interval()  arm tracking for a new interval (clear_refs, re-WP)
//     ... tracked process runs ...
//     collect()         harvest dirty GVAs for the interval
//     shutdown()        teardown
//
// A DirtyTracker is one session. It drives one backend (ooh/trackers.hpp)
// at a time, and one handoff replaces it: the old backend shuts down, the
// new one is made and inits. Graceful degradation (a backend's init runs out
// of memory) and the adaptive control plane (ooh/adaptive/: a policy picks
// the next interval's backend from the process's dirty rate) both use it.
//
// Per-phase virtual time is attributed to Phases, on the tracked process's
// vCPU, so benches can report the paper's Tracker-side costs (Fig. 3,
// Table I "On Tracker").
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "guest/kernel.hpp"
#include "guest/process.hpp"

namespace ooh::lib {

enum class Technique { kProc, kUfd, kSpml, kEpml, kWp, kSeg, kOracle, kAdaptive };

[[nodiscard]] std::string_view technique_name(Technique t) noexcept;

/// Tracker-side time split by lifecycle phase.
struct Phases {
  VirtDuration init{0};
  VirtDuration arm{0};       ///< begin_interval total (clear_refs / re-protect).
  VirtDuration collect{0};   ///< address-collection total (incl. reverse map).
  VirtDuration monitor{0};   ///< tracker work during monitoring (ufd fault service).
  u64 intervals = 0;
  u64 collected_pages = 0;   ///< sum over intervals (after per-interval dedup).

  [[nodiscard]] VirtDuration tracker_total() const noexcept {
    return init + arm + collect + monitor;
  }
};

struct AdaptiveOptions;  // ooh/adaptive/policy.hpp
class Backend;           // ooh/trackers.hpp

/// One tracking session over one process. The session owns the active
/// backend, attributes its phases on the process's vCPU, dedups what it
/// collects, and is the only place a backend is replaced (handoff): when a
/// backend's init() runs out of memory, or, for an adaptive session, when
/// the policy picks another backend at an interval boundary.
class DirtyTracker {
 public:
  /// A session on technique `t`'s backend (not kAdaptive: use the
  /// AdaptiveOptions constructor or make_tracker).
  DirtyTracker(guest::GuestKernel& kernel, guest::Process& proc, Technique t);
  /// An adaptive session: a WssEstimator senses the process's dirty rate and
  /// a PolicyEngine picks the backend of the next interval.
  DirtyTracker(guest::GuestKernel& kernel, guest::Process& proc,
               const AdaptiveOptions& opts);
  ~DirtyTracker();

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// The technique the session was opened with (kAdaptive for adaptive).
  [[nodiscard]] Technique technique() const noexcept { return technique_; }
  [[nodiscard]] std::string_view name() const noexcept {
    return technique_name(technique());
  }

  /// One-time setup. If the backend's resources cannot be allocated
  /// (bad_alloc — real or injected), the session degrades gracefully to the
  /// backend's weaker sibling, counting Event::kTrackerDegraded. Techniques
  /// with no weaker sibling rethrow.
  void init();
  void begin_interval();
  /// Dirty page GVAs (page-aligned, deduplicated, sorted) for the interval.
  /// An adaptive session may hand off to another backend afterwards; the
  /// caller's next begin_interval() arms it.
  [[nodiscard]] std::vector<Gva> collect();
  void shutdown();

  /// Pages known to have been lost (ring overflow), over every backend the
  /// session ran. 0 for exact techniques.
  [[nodiscard]] u64 dropped() const;

  /// True when init() fell back to a weaker technique.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// The technique of the backend doing the tracking now.
  [[nodiscard]] Technique effective_technique() const noexcept;
  /// Backends the adaptive policy switched to, in order.
  [[nodiscard]] const std::vector<Technique>& switch_history() const noexcept {
    return history_;
  }
  [[nodiscard]] u64 switches() const noexcept { return history_.size(); }

  /// Phase times over every backend the session ran.
  [[nodiscard]] const Phases& phases() const noexcept { return phases_; }
  [[nodiscard]] guest::Process& process() noexcept { return proc_; }

 private:
  struct ControlPlane;  ///< WssEstimator + PolicyEngine (adaptive sessions).

  /// Init the active backend; on bad_alloc, degrade through handoff().
  void init_backend();
  /// Shut the active backend down (if it was armed), make `next`, init it.
  void handoff(Technique next);

  guest::GuestKernel& kernel_;
  guest::Process& proc_;
  Technique technique_;
  Phases phases_;
  std::unique_ptr<Backend> backend_;  ///< null only inside a degradation.
  std::unique_ptr<ControlPlane> plane_;
  std::vector<Technique> history_;
  u64 dropped_retired_ = 0;  ///< dropped() of backends handed off.
  std::vector<u64> order_words_;  ///< collect()'s ordering bits (sort_unique_pages).
  bool degraded_ = false;
};

/// A session over the technique enum (kAdaptive: default AdaptiveOptions);
/// SPML/EPML load the OoH kernel module on init() if it is not already
/// loaded in the right mode.
[[nodiscard]] std::unique_ptr<DirtyTracker> make_tracker(Technique t,
                                                         guest::GuestKernel& kernel,
                                                         guest::Process& proc);

}  // namespace ooh::lib

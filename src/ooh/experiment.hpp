// Experiment driver implementing the paper's methodology (§VI-B):
// Tracker and Tracked share the Tracked's vCPU; the Tracker periodically
// preempts the Tracked to collect dirty addresses; the Tracked's completion
// time and the Tracker's own time are both read off that vCPU's clock, so
//     E(C_tked_tker) = E(C_tked) + E(C_tker) + I(C_x, C_tked)
// holds by construction and the overhead of each technique is measurable.
#pragma once

#include <functional>

#include "base/counters.hpp"
#include "ooh/tracker.hpp"

namespace ooh::lib {

struct RunOptions {
  /// Tracker collection cadence (virtual time). Zero disables periodic
  /// collection; a single collection then happens at the end of the run.
  VirtDuration collect_period = msecs(500);
  /// Cap on in-run collections (0 = unbounded). The paper's microbench runs
  /// a single monitor+collect cycle on the Tracked's timeline; set 1 for
  /// that methodology.
  unsigned max_collections = 0;
  bool final_collect = true;
  /// Called with each interval's collected pages (the "exploitation" phase
  /// C_p -- e.g. CRIU's dump). May charge virtual time.
  std::function<void(const std::vector<Gva>&)> on_collected;
};

struct RunResult {
  VirtDuration tracked_time{0};  ///< workload completion time under tracking.
  Phases phases;                 ///< tracker-side time split.
  u64 unique_pages = 0;          ///< distinct dirty pages reported over the run.
  u64 truth_pages = 0;           ///< ground-truth distinct dirty pages.
  u64 captured_truth = 0;        ///< truth pages that the tracker reported.
  u64 dropped = 0;               ///< ring-overflow losses (PML designs).
  u64 ctx_switches = 0;
  bool guest_oom = false;        ///< workload stopped early on guest OOM.
  EventCounters events;          ///< event deltas over the run.

  [[nodiscard]] double capture_ratio() const noexcept {
    return truth_pages == 0
               ? 1.0
               : static_cast<double>(captured_truth) / static_cast<double>(truth_pages);
  }
  [[nodiscard]] VirtDuration tracker_time() const noexcept {
    return phases.tracker_total();
  }
};

using WorkloadFn = std::function<void(guest::Process&)>;

/// Run `workload` in `proc` while `tracker` (nullable -> untracked baseline)
/// monitors it, per RunOptions. Returns timing, capture and event metrics.
RunResult run_tracked(guest::GuestKernel& kernel, guest::Process& proc,
                      const WorkloadFn& workload, DirtyTracker* tracker,
                      const RunOptions& opts = {});

/// Convenience: the untracked baseline ("ideal execution time", §III).
RunResult run_baseline(guest::GuestKernel& kernel, guest::Process& proc,
                       const WorkloadFn& workload);

}  // namespace ooh::lib

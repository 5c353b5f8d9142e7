// Pre-copy live migration driven by PML -- the feature's original purpose
// (§II-B) and the hypervisor-side user that OoH's coexistence flags protect.
//
// The engine alternates "run the guest a bit" with "harvest dirty GPAs and
// resend them", converging when the dirty set falls under the stop-and-copy
// threshold. It exercises enabled_by_hyp concurrently with a guest's SPML
// session in tests and in the live_migration example.
#pragma once

#include <functional>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "hypervisor/hypervisor.hpp"

namespace ooh::hv {

struct MigrationOptions {
  unsigned max_rounds = 30;
  /// Stop-and-copy when the last round dirtied at most this many pages.
  u64 stop_copy_threshold_pages = 64;
  /// Give up a transfer after this many failed attempts (injected faults).
  unsigned send_retry_limit = 3;
  /// Backoff before the first retry; doubles per attempt (exponential).
  double retry_backoff_us = 200.0;
  /// Models the guest running between the final pre-copy harvest and the
  /// vCPU pause (the drain window). Writes made here land in the PML
  /// buffer/dirty log and must appear in the stop-and-copy set.
  std::function<void()> drain_window_body;
};

struct MigrationReport {
  unsigned rounds = 0;
  u64 pages_sent = 0;          ///< total, across all rounds + stop-and-copy.
  u64 initial_pages = 0;       ///< pages in the first full copy.
  u64 stop_copy_pages = 0;     ///< pages re-sent while the VM was paused.
  u64 send_retries = 0;        ///< transfer attempts that failed and backed off.
  bool converged = false;      ///< dirty rate fell under the threshold.
  bool aborted = false;        ///< a transfer kept failing; migration gave up.
  VirtDuration total_time{0};
  VirtDuration downtime{0};    ///< stop-and-copy duration (VM paused).
};

class MigrationEngine {
 public:
  explicit MigrationEngine(Hypervisor& hv) : hv_(hv) {}

  /// Migrate `vm`, calling `run_guest_quantum` between pre-copy rounds to
  /// model the still-running guest dirtying memory.
  MigrationReport migrate(Vm& vm, const std::function<void()>& run_guest_quantum,
                          const MigrationOptions& opts = {});

 private:
  /// One transfer attempt with bounded retry/backoff under injected send
  /// faults. False when the retry budget is exhausted (caller aborts or
  /// carries the set into the next round).
  bool send_pages(sim::ExecContext& ctx, u64 count, const MigrationOptions& opts,
                  MigrationReport& rep);

  Hypervisor& hv_;
};

}  // namespace ooh::hv

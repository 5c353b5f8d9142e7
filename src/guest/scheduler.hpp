// Cooperative single-vCPU scheduler for the guest OS.
//
// The paper's methodology (§VI-B) runs Tracker and Tracked time-sharing one
// dedicated CPU, so every cycle the Tracker spends directly delays the
// Tracked. We model that with one virtual clock and explicit switch points:
//   * quantum expiries on the Tracked's execution path (timer ticks), and
//   * service windows in which Tracker code runs (collection rounds).
// Schedule-in/out hooks are how the OoH module gets per-process PML
// granularity (challenge C2): it toggles logging at every switch.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "sim/exec_context.hpp"

namespace ooh::guest {

class SchedHook {
 public:
  virtual ~SchedHook() = default;
  virtual void on_schedule_in(u32 pid) = 0;
  virtual void on_schedule_out(u32 pid) = 0;
};

class Scheduler {
 public:
  explicit Scheduler(sim::ExecContext& ctx) : ctx_(ctx) {}

  void set_quantum(VirtDuration q) noexcept { quantum_ = q; }
  [[nodiscard]] VirtDuration quantum() const noexcept { return quantum_; }

  void add_hook(SchedHook* h) { hooks_.push_back(h); }
  void remove_hook(SchedHook* h);

  /// Install a service callback that preempts the running process every
  /// `period` of virtual time (the Tracker's collection cadence).
  void set_periodic(VirtDuration period, std::function<void()> fn);
  void clear_periodic();

  /// Called from the memory-access path of the running process; fires
  /// quantum ticks and periodic service when their deadlines pass. Inline
  /// up to the deadline test, so an access that reaches no deadline pays
  /// one comparison.
  void on_progress(u32 pid) {
    if (ctx_.clock.now() < next_deadline()) return;
    on_deadline(pid);
  }

  /// The earliest clock value at which on_progress() acts: the sooner of the
  /// quantum and periodic deadlines, +inf while a service runs. Below it
  /// on_progress() is a no-op, so batched access runs call it only once the
  /// clock gets there.
  [[nodiscard]] VirtDuration next_deadline() const noexcept { return deadline_; }

  /// Run `fn` as a different task: schedule the current process out (firing
  /// hooks, charging context switches), run, schedule it back in.
  template <typename Fn>
  void run_service(u32 pid, Fn&& fn) {
    if (in_service_) {  // nested service calls run inline
      fn();
      return;
    }
    set_in_service(true);
    switch_out(pid);
    fn();
    switch_in(pid);
    set_in_service(false);
    rearm_deadlines();
  }

  [[nodiscard]] u64 quantum_switches() const noexcept { return quantum_switches_; }
  [[nodiscard]] bool in_service() const noexcept { return in_service_; }

  /// Explicit process lifecycle around a workload run.
  void enter_process(u32 pid);
  void exit_process(u32 pid);

 private:
  void switch_out(u32 pid);
  void switch_in(u32 pid);
  void rearm_deadlines();
  /// Recompute deadline_ from the state it caches; every write to
  /// in_service_, periodic_, next_quantum_ or next_periodic_ is followed by
  /// one.
  void refresh_deadline() noexcept {
    deadline_ = in_service_ ? VirtDuration{std::numeric_limits<double>::infinity()}
                : periodic_ && next_periodic_ < next_quantum_ ? next_periodic_
                                                              : next_quantum_;
  }
  void set_in_service(bool on) noexcept {
    in_service_ = on;
    refresh_deadline();
  }
  void fire_quantum(u32 pid);
  /// on_progress() once the clock has reached next_deadline().
  void on_deadline(u32 pid);

  sim::ExecContext& ctx_;
  std::vector<SchedHook*> hooks_;
  VirtDuration quantum_{secs(1.0)};
  VirtDuration next_quantum_{secs(1.0)};
  std::function<void()> periodic_;
  VirtDuration period_{0};
  VirtDuration next_periodic_{0};
  bool in_service_ = false;
  /// next_deadline(), cached: the access path reads it on every access.
  VirtDuration deadline_{secs(1.0)};
  u64 quantum_switches_ = 0;
};

}  // namespace ooh::guest

#include "ooh/experiment.hpp"

#include <new>
#include <unordered_set>

#include "hypervisor/hypervisor.hpp"
#include "sim/check/coherence.hpp"

namespace ooh::lib {

RunResult run_tracked(guest::GuestKernel& kernel, guest::Process& proc,
                      const WorkloadFn& workload, DirtyTracker* tracker,
                      const RunOptions& opts) {
  sim::ExecContext& m = kernel.ctx_of(proc);
  guest::Scheduler& sched = kernel.scheduler_of(proc);

  RunResult res;
  proc.truth_reset();
  std::unordered_set<Gva> reported;

  unsigned in_run_collections = 0;
  const auto do_collect = [&] {
    const std::vector<Gva> pages = tracker->collect();
    reported.insert(pages.begin(), pages.end());
    if (opts.on_collected) opts.on_collected(pages);
    tracker->begin_interval();
    // Collection interval == a natural cross-layer quiescent point: audit
    // this VM's coherence (no-op unless an audit build installed the hook).
    if constexpr (check::kCoherenceAuditsEnabled) {
      kernel.hypervisor().audit_now(kernel.vm().id());
    }
    ++in_run_collections;
    if (opts.max_collections != 0 && in_run_collections >= opts.max_collections) {
      sched.clear_periodic();
    }
  };

  if (tracker != nullptr) {
    tracker->init();
    tracker->begin_interval();
    if (opts.collect_period.count() > 0) {
      sched.set_periodic(opts.collect_period, do_collect);
    }
  }

  // Paper methodology (§III): Tracked is suspended during the tracker's
  // initialization phase, so its timeline starts here. Per-interval arming
  // and collection do run on its clock. Event deltas cover the same window
  // (plus the final harvest), so the analytical model can be validated
  // against them (Table IV).
  const EventCounters before = m.counters;
  const u64 ctx_before = m.counters.get(Event::kContextSwitch);
  const VirtDuration start = m.clock.now();

  sched.enter_process(proc.pid());
  try {
    workload(proc);
  } catch (const std::bad_alloc&) {
    // Guest OOM (real or injected) mid-workload: the workload stops early,
    // but the run winds down through the normal path so the machine stays
    // coherent and the partial session is still collected and audited.
    res.guest_oom = true;
  }
  sched.exit_process(proc.pid());
  sched.clear_periodic();

  res.tracked_time = m.clock.now() - start;

  if (tracker != nullptr) {
    if (opts.final_collect) {
      // Final harvest runs after the Tracked finished (it no longer inflates
      // the Tracked's completion time, matching Fig. 1's timeline).
      const std::vector<Gva> pages = tracker->collect();
      reported.insert(pages.begin(), pages.end());
      if (opts.on_collected) opts.on_collected(pages);
    }
    res.phases = tracker->phases();
    res.dropped = tracker->dropped();
  }
  if constexpr (check::kCoherenceAuditsEnabled) {
    kernel.hypervisor().audit_now(kernel.vm().id());
  }

  res.unique_pages = reported.size();
  res.truth_pages = proc.truth_dirty().size();
  for (const auto& [page, seq] : proc.truth_dirty()) {
    (void)seq;
    if (reported.contains(page)) ++res.captured_truth;
  }
  res.ctx_switches = m.counters.get(Event::kContextSwitch) - ctx_before;
  res.events = m.counters.diff(before);
  return res;
}

RunResult run_baseline(guest::GuestKernel& kernel, guest::Process& proc,
                       const WorkloadFn& workload) {
  return run_tracked(kernel, proc, workload, nullptr, {});
}

}  // namespace ooh::lib

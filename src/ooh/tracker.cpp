#include "ooh/tracker.hpp"

#include <new>

#include "base/clock.hpp"
#include "base/page_bitmap.hpp"
#include "hypervisor/hypervisor.hpp"
#include "ooh/adaptive/policy.hpp"
#include "ooh/adaptive/wss_estimator.hpp"
#include "ooh/trackers.hpp"
#include "sim/exec_context.hpp"

namespace ooh::lib {

std::string_view technique_name(Technique t) noexcept {
  switch (t) {
    case Technique::kProc: return "/proc";
    case Technique::kUfd: return "ufd";
    case Technique::kSpml: return "SPML";
    case Technique::kEpml: return "EPML";
    case Technique::kWp: return "wp";
    case Technique::kSeg: return "seg";
    case Technique::kOracle: return "oracle";
    case Technique::kAdaptive: return "adaptive";
  }
  return "?";
}

struct DirtyTracker::ControlPlane {
  explicit ControlPlane(const AdaptiveOptions& opts)
      : estimator(opts.estimator_alpha), policy(opts.policy) {}

  /// (Un)register the estimator on every vCPU's dirty chains: a dirty
  /// transition dispatches on the chain of the vCPU that executed the write,
  /// so each event reaches it exactly once.
  void listen(guest::GuestKernel& kernel, bool on) {
    if (on == listening) return;
    for (unsigned cpu = 0; cpu < kernel.vcpu_count(); ++cpu) {
      sim::WriteTrackRegistry& track = kernel.vm().track(cpu);
      if (on) {
        track.register_notifier(sim::TrackLayer::kGuestPtDirty, &estimator);
        track.register_notifier(sim::TrackLayer::kEptDirty, &estimator);
      } else {
        track.unregister_notifier(sim::TrackLayer::kEptDirty, &estimator);
        track.unregister_notifier(sim::TrackLayer::kGuestPtDirty, &estimator);
      }
    }
    listening = on;
  }

  WssEstimator estimator;
  PolicyEngine policy;
  bool listening = false;
};

DirtyTracker::DirtyTracker(guest::GuestKernel& kernel, guest::Process& proc,
                           Technique t)
    : kernel_(kernel),
      proc_(proc),
      technique_(t),
      backend_(make_backend(t, kernel, proc, phases_)) {}

DirtyTracker::DirtyTracker(guest::GuestKernel& kernel, guest::Process& proc,
                           const AdaptiveOptions& opts)
    : kernel_(kernel),
      proc_(proc),
      technique_(Technique::kAdaptive),
      backend_(make_backend(opts.initial, kernel, proc, phases_)),
      plane_(std::make_unique<ControlPlane>(opts)) {}

DirtyTracker::~DirtyTracker() {
  if (plane_ != nullptr) plane_->listen(kernel_, false);
}

void DirtyTracker::init() {
  if (plane_ != nullptr) {
    plane_->listen(kernel_, true);
    plane_->estimator.watch(proc_.pid());
  }
  init_backend();
  if (plane_ != nullptr) {
    plane_->estimator.begin_window(proc_.pid(), kernel_.ctx_of(proc_).clock.now());
  }
}

void DirtyTracker::init_backend() {
  sim::ExecContext& ctx = kernel_.ctx_of(proc_);
  try {
    VirtualClock::Scope s(ctx.clock, phases_.init);
    backend_->init();
    return;
  } catch (const std::bad_alloc&) {
    if (backend_->fallback() == backend_->technique()) throw;  // nothing weaker
    // Graceful degradation (visible, audited): the backend's resources could
    // not be allocated, so the session continues on the weaker sibling
    // instead of dying — EPML falls back to SPML, SPML and wp to /proc
    // soft-dirty.
    ctx.count(Event::kTrackerDegraded);
    if (ctx.faults != nullptr) ctx.faults->note_degradation();
    ctx.fault_audit();
    degraded_ = true;
  }
  const Technique fallback = backend_->fallback();
  backend_.reset();  // its init failed: nothing to shut down
  handoff(fallback);
}

void DirtyTracker::handoff(Technique next) {
  // Handoff protocol (POL-1): callers run this at a quiescent point — init,
  // or collect's synchronous service window right after the old backend's
  // interval was harvested — so no guest write lands between the old
  // backend's teardown (wp restores writability, PML sessions deactivate)
  // and the new backend's init, and no dirty page is lost.
  if (backend_ != nullptr) {
    dropped_retired_ += backend_->dropped();
    backend_->shutdown();
  }
  backend_ = make_backend(next, kernel_, proc_, phases_);
  init_backend();
}

void DirtyTracker::begin_interval() {
  VirtualClock::Scope s(kernel_.ctx_of(proc_).clock, phases_.arm);
  backend_->begin_interval();
}

std::vector<Gva> DirtyTracker::collect() {
  sim::ExecContext& ctx = kernel_.ctx_of(proc_);
  ctx.count(Event::kTrackerCollect);
  std::vector<Gva> pages;
  {
    VirtualClock::Scope s(ctx.clock, phases_.collect);
    pages = backend_->collect();
    sort_unique_pages(pages, order_words_);
  }
  ++phases_.intervals;
  phases_.collected_pages += pages.size();
  if (plane_ == nullptr) return pages;

  // Adaptive control plane: close the estimator's window with the interval
  // just harvested, and switch backends if the policy wants another one for
  // the next interval.
  plane_->estimator.note_interval(proc_.pid(), pages, ctx.clock.now(), ctx);
  const Technique current = backend_->technique();
  const Technique want =
      plane_->policy.decide(plane_->estimator.signal(proc_.pid()), current);
  if (want != current) {
    ctx.count(Event::kPolicySwitch);
    ctx.charge_us(ctx.cost.policy_switch_us);
    handoff(want);
    history_.push_back(want);
    // Handoff boundary: let an installed coherence hook audit this VM (the
    // POL-1 pass; no-op outside audit builds).
    kernel_.hypervisor().audit_now(kernel_.vm().id());
  }
  return pages;
}

void DirtyTracker::shutdown() {
  backend_->shutdown();
  if (plane_ != nullptr) {
    plane_->estimator.unwatch(proc_.pid());
    plane_->listen(kernel_, false);
  }
}

u64 DirtyTracker::dropped() const {
  return dropped_retired_ + backend_->dropped();
}

Technique DirtyTracker::effective_technique() const noexcept {
  return backend_->technique();
}

std::unique_ptr<DirtyTracker> make_tracker(Technique t, guest::GuestKernel& kernel,
                                           guest::Process& proc) {
  if (t == Technique::kAdaptive) {
    return std::make_unique<DirtyTracker>(kernel, proc, AdaptiveOptions{});
  }
  return std::make_unique<DirtyTracker>(kernel, proc, t);
}

}  // namespace ooh::lib

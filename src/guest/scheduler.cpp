#include "guest/scheduler.hpp"

#include <algorithm>

namespace ooh::guest {

void Scheduler::remove_hook(SchedHook* h) {
  std::erase(hooks_, h);
}

void Scheduler::set_periodic(VirtDuration period, std::function<void()> fn) {
  period_ = period;
  periodic_ = std::move(fn);
  next_periodic_ = ctx_.clock.now() + period;
  refresh_deadline();
}

void Scheduler::clear_periodic() {
  periodic_ = nullptr;
  period_ = VirtDuration{0};
  refresh_deadline();
}

void Scheduler::switch_out(u32 pid) {
  for (SchedHook* h : hooks_) h->on_schedule_out(pid);
  ctx_.count(Event::kContextSwitch);
  ctx_.charge_us(ctx_.cost.ctx_switch_us);
}

void Scheduler::switch_in(u32 pid) {
  ctx_.count(Event::kContextSwitch);
  ctx_.charge_us(ctx_.cost.ctx_switch_us);
  for (SchedHook* h : hooks_) h->on_schedule_in(pid);
}

void Scheduler::rearm_deadlines() {
  next_quantum_ = ctx_.clock.now() + quantum_;
  if (periodic_) next_periodic_ = ctx_.clock.now() + period_;
  refresh_deadline();
}

void Scheduler::enter_process(u32 pid) {
  switch_in(pid);
  rearm_deadlines();
}

void Scheduler::exit_process(u32 pid) {
  switch_out(pid);
}

void Scheduler::fire_quantum(u32 pid) {
  // Timer tick: the process is briefly descheduled and rescheduled. This
  // is what makes N (context switches during tracking) nonzero, the term
  // Formula 4 charges SPML/EPML per switch.
  ctx_.count(Event::kSchedQuantum);
  ++quantum_switches_;
  set_in_service(true);
  switch_out(pid);
  switch_in(pid);
  in_service_ = false;
  next_quantum_ = ctx_.clock.now() + quantum_;
  refresh_deadline();
}

void Scheduler::on_deadline(u32 pid) {
  const VirtDuration now = ctx_.clock.now();
  if (periodic_ && now >= next_periodic_) {
    // Run a copy: the service is allowed to clear_periodic() from inside
    // itself (e.g. a collection cap), which destroys the stored callable.
    const std::function<void()> service = periodic_;
    const VirtDuration quantum_deadline = next_quantum_;
    run_service(pid, service);
    // A quantum deadline that passed before or during the service window
    // must still deliver its tick; run_service() rearmed the deadlines, so
    // without this check the expiry would be silently absorbed and
    // Formula 4's N term under-counted during long collection rounds.
    if (ctx_.clock.now() >= quantum_deadline) fire_quantum(pid);
    return;
  }
  if (now >= next_quantum_) fire_quantum(pid);
}

}  // namespace ooh::guest

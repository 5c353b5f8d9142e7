#include "harness.hpp"

#include <algorithm>

namespace perfbench {
namespace {

/// Every vCPU of every tenant of the bed, in a fixed order.
template <typename Fn>
void for_each_vcpu(ooh::lib::TestBed& bed, Fn&& fn) {
  for (unsigned t = 0; t < bed.tenant_count(); ++t) {
    ooh::hv::Vm& vm = bed.vm(t);
    for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) fn(vm.vcpu(cpu).ctx());
  }
}

}  // namespace

void Pass::begin_timed(ooh::lib::TestBed& bed) {
  events_at_start_.clear();
  clock_at_start_.clear();
  for_each_vcpu(bed, [&](ooh::sim::ExecContext& ctx) {
    events_at_start_.push_back(ctx.counters);
    clock_at_start_.push_back(ctx.clock.now().count());
  });
}

void Pass::end_timed(ooh::lib::TestBed& bed) {
  std::size_t i = 0;
  double longest_us = 0.0;
  for_each_vcpu(bed, [&](ooh::sim::ExecContext& ctx) {
    stats_.events.merge(ctx.counters.diff(events_at_start_.at(i)));
    longest_us = std::max(longest_us, ctx.clock.now().count() - clock_at_start_.at(i));
    stats_.digest.mix(ctx.clock.now().count());
    for (std::size_t e = 0; e < ooh::kEventCount; ++e) {
      stats_.digest.mix(ctx.counters.get(static_cast<ooh::Event>(e)));
    }
    ++i;
  });
  stats_.virt_ms += longest_us / 1e3;
}

}  // namespace perfbench

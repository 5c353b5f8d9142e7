// Per-vCPU execution context: the mutable state one virtual CPU timeline
// owns exclusively — its virtual clock, event counters and TLB — plus
// references to the machine's read-only cost model and to the host-frame
// partition of the VM the vCPU belongs to.
//
// The paper's scalability argument (Figs. 10-11) is that PML state is
// per-vCPU with no cross-VM coupling; this type is that argument in code.
// Each Vcpu owns its context by value, and a VM's vCPUs all run on the one
// thread that owns the VM and its partition. So independent tenant-VM
// timelines may run on different host threads and still produce bit-
// identical results, host-physical addresses included, to a serial run.
#pragma once

#include "base/clock.hpp"
#include "base/cost_model.hpp"
#include "base/counters.hpp"
#include "sim/fault/injector.hpp"
#include "sim/phys_mem.hpp"
#include "sim/tlb.hpp"

namespace ooh::sim {

class ExecContext {
 public:
  ExecContext(const CostModel& cost_model, PhysicalMemory& phys)
      : cost(cost_model), pmem(phys) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  void charge_us(double us) { clock.advance(usecs(us)); }
  void charge_ns(double ns) { clock.advance(nsecs(ns)); }
  void charge(VirtDuration d) { clock.advance(d); }
  void count(Event e, u64 n = 1) noexcept { counters.add(e, n); }

  // ---- fault injection (tentpole of the robustness PR) ------------------
  // `faults == nullptr` is the production configuration: every hook below
  // collapses to a branch on a null pointer, charges zero virtual time and
  // counts nothing, so faults-disabled runs stay bit-identical to a build
  // without the subsystem.

  /// One arrival at injection point `p`; true when the FaultPlan fires.
  [[nodiscard]] bool fault_fire(fault::FaultPoint p) noexcept {
    if (faults == nullptr || !faults->fire(p)) return false;
    counters.add(Event::kFaultInjected);
    return true;
  }

  /// Self-IPI delivery gate (see FaultInjector::gate_self_ipi). True means
  /// deliver the IPI; false means it was dropped by an injected fault.
  [[nodiscard]] bool fault_gate_self_ipi() noexcept {
    if (faults == nullptr) return true;
    const auto gate = faults->gate_self_ipi();
    if (gate.fired) counters.add(Event::kFaultInjected);
    if (!gate.deliver) counters.add(Event::kSelfIpiSuppressed);
    return gate.deliver;
  }

  /// Run the post-fault audit hook (CoherenceChecker::audit_vm when the
  /// TestBed wired one). Call sites invoke this once machine state has
  /// settled after an injected fault, so every fault is followed by a full
  /// invariant audit at the blast site.
  void fault_audit() {
    if (faults != nullptr) faults->run_post_fault_hook();
  }

  VirtualClock clock;
  EventCounters counters;
  Tlb tlb;
  const CostModel& cost;
  PhysicalMemory& pmem;
  fault::FaultInjector* faults = nullptr;  ///< owned by the TestBed; null = no faults.
};

}  // namespace ooh::sim

// Machine-state coherence oracle.
//
// PR 2 routed every dirty-producing event through the page-track notifier
// chain, which means TLB entries, EPT flags, guest PTEs, PML/EPML buffers
// and the dirty-log consumers are now mutated from three different layers.
// That is exactly the translation-coherence hazard of Yan et al. (HATRIC):
// a cached translation that outlives the state it was derived from silently
// breaks the paper's core claim — a GPA is logged IFF a write sets the EPT
// dirty flag during a walk. The CoherenceChecker audits the cross-layer
// invariants (catalogued in docs/invariants.md, with IDs matching the ones
// thrown here) at VM-exit/quantum boundaries and on demand:
//
//   TLB-*    every cached translation re-derives from the current guest
//            PT + EPT walk; cached write permission and cached dirty state
//            must be re-derivable (a stale writable+dirty entry would let
//            stores bypass logging — the OoH-fatal direction).
//   PML-*    hypervisor- and guest-level PML indices in bounds; in-flight
//            entries page-aligned, unique and within the VM's address space.
//   ACC-*    during a hypervisor-exclusive PML session every set EPT
//            dirty (or accessed, under read-logging) flag is accounted for
//            by exactly one consumer stage: the in-flight buffer or the
//            drained dirty log.
//   PT-*     guest page tables: GPAs in bounds, each guest frame owned by
//            at most one present PTE across all processes.
//   GRAN-1   multi-granularity exclusivity: no GPA (or GVA, per process) is
//            covered by two present leaves of different size — a double
//            cover would give one page two independent dirty flags, and
//            which one a walk sets would depend on walk order. The segment
//            backend's form: segments sorted, non-overlapping, internally
//            consistent.
//   SPLIT-1  while an eager-split logging session is active the EPT holds
//            no PS-bit leaves: every dirty flag set during the session is
//            4 KiB-precise, so the accounting ACC-* closes stays page-
//            granular across the split.
//   FRAME-*  per host-frame partition: every frame a VM's EPT or PML
//            buffers name lies in that VM's own partition and is claimed
//            once; the partition's used count equals its claimed frames
//            (leak/double-free detection); no unclaimed frame holds contents.
//   RING-*   per-vCPU dirty rings: popped <= pushed, pushed - popped <=
//            capacity, pending/spill entries page-aligned and in bounds.
//   SHOOT-1  cached translations live only on vCPUs in the owning process's
//            mm_cpumask (else a shootdown could never reach them).
//   CLK-*    per-vCPU virtual time monotone across audits.
//   REG-*    notifier registry: no null or duplicate registrations, the
//            permanent hardware circuits head their chains, per-consumer
//            delivery counts never exceed the layer dispatch count.
//   POL-1    policy-driven backend handoff: when no kEptWpFault handler is
//            registered on any vCPU chain (no write-protection session is
//            live), no present EPT entry may remain write-protected with
//            its SPP bit clear — an orphaned protection left behind by a
//            backend switch would turn the next write into an unhandled
//            WP fault (and its dirty transition would never be observed).
//
// The oracle only reads machine state and charges zero virtual time, so
// enabling it cannot perturb any figure output. Auto-auditing (TestBed,
// run_tracked, migration rounds) is compiled in for Debug/CI builds via
// OOH_COHERENCE_AUDITS and compiled out in Release; the class itself is
// always available so the mutation self-test can drive it explicitly.
#pragma once

#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"
#include "sim/check/invariant.hpp"

namespace ooh::sim {
class Machine;
}
namespace ooh::hv {
class Hypervisor;
class Vm;
}
namespace ooh::guest {
class GuestKernel;
}

namespace ooh::check {

/// True when auto-audit wiring (TestBed / run_tracked / migration) is
/// compiled in. Debug and CI builds define OOH_COHERENCE_AUDITS; Release
/// builds leave the hot paths untouched.
#ifdef OOH_COHERENCE_AUDITS
inline constexpr bool kCoherenceAuditsEnabled = true;
#else
inline constexpr bool kCoherenceAuditsEnabled = false;
#endif

class CoherenceChecker {
 public:
  CoherenceChecker(sim::Machine& machine, hv::Hypervisor& hypervisor)
      : machine_(machine), hypervisor_(hypervisor) {}

  CoherenceChecker(const CoherenceChecker&) = delete;
  CoherenceChecker& operator=(const CoherenceChecker&) = delete;

  /// Register the guest kernel running in VM `vm_index` so per-process page
  /// tables join the audit scope, and size that VM's audit state. VMs
  /// without an attached kernel still get their TLB/EPT/PML/frame/registry
  /// state audited.
  void attach_kernel(u32 vm_index, guest::GuestKernel& kernel);

  /// Audit one VM's cross-layer state, its host-frame partition included.
  /// Touches only that VM and its own audit state, so concurrent audits of
  /// *different* attached VMs from tenant worker threads share nothing.
  void audit_vm(u32 vm_index);

  /// audit_vm for every VM. Single-threaded use only.
  void audit_all();

  /// Total audit passes run, summed over VMs (self-test instrumentation).
  [[nodiscard]] u64 audits_run() const noexcept;

  // Individual invariant families, public so the mutation self-test can
  // target one at a time. All throw InvariantViolation on disagreement.
  void audit_tlb(hv::Vm& vm);
  void audit_walk_caches(hv::Vm& vm);
  void audit_pml_buffers(hv::Vm& vm);
  void audit_rings(hv::Vm& vm);
  void audit_dirty_accounting(hv::Vm& vm);
  void audit_guest_tables(hv::Vm& vm);
  void audit_granularity(hv::Vm& vm);
  void audit_eager_split(hv::Vm& vm);
  void audit_registry(hv::Vm& vm);
  void audit_policy_handoff(hv::Vm& vm);
  void audit_clock(hv::Vm& vm);
  void audit_frames(hv::Vm& vm);

 private:
  /// What the checker keeps per VM; only audits of that VM touch it.
  struct VmState {
    guest::GuestKernel* kernel = nullptr;
    std::vector<VirtDuration> clocks;  // last-seen virtual time per vCPU
    u64 audits = 0;
  };

  /// VM `vm_index`'s state, growing the table for a VM never attached.
  /// attach_kernel sizes it for every attached VM up front, so audits of
  /// attached VMs on worker threads never grow it.
  [[nodiscard]] VmState& state(u32 vm_index);
  [[nodiscard]] guest::GuestKernel* kernel_of(u32 vm_index) const noexcept;

  sim::Machine& machine_;
  hv::Hypervisor& hypervisor_;
  std::vector<VmState> vms_;  // indexed by VM id
};

}  // namespace ooh::check

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
//   FRAME-*  host frame ownership exclusive per VM; the allocator's used
//            count equals the frames accounted for by EPT mappings and PML
//            buffers (leak/double-free detection).
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

#include "base/sync.hpp"
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
  /// tables join the audit scope. VMs without an attached kernel still get
  /// their TLB/EPT/PML/registry state audited.
  void attach_kernel(u32 vm_index, guest::GuestKernel& kernel);

  /// Audit one VM's cross-layer state. Touches only that VM (plus the
  /// thread-safe frame-allocator counters), so concurrent audits of
  /// *different* VMs from tenant worker threads are safe.
  void audit_vm(u32 vm_index);

  /// Audit machine-global state: frame-ownership exclusivity across VMs and
  /// allocator leak accounting. Single-threaded use only (walks every EPT).
  void audit_machine();

  /// audit_vm for every VM, then audit_machine. Single-threaded use only.
  void audit_all();

  /// Total audit passes run (self-test instrumentation).
  [[nodiscard]] u64 audits_run() const noexcept {
    // relaxed-ok: self-test statistics counter; no state is published
    // through it.
    return audits_run_.load(std::memory_order_relaxed);
  }

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
  void audit_frames();

 private:
  [[nodiscard]] guest::GuestKernel* kernel_of(u32 vm_index) const noexcept;

  sim::Machine& machine_;
  hv::Hypervisor& hypervisor_;
  std::vector<guest::GuestKernel*> kernels_;  // indexed by VM id
  // Last-seen virtual time per VM and vCPU, for the monotonicity audit.
  // Guarded: the vectors may grow lazily while tenants audit concurrently.
  mutable sync::Mutex clock_mu_;
  std::vector<std::vector<VirtDuration>> clock_snapshots_;
  sync::Atomic<u64> audits_run_{0};
};

}  // namespace ooh::check

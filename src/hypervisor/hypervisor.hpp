// The hypervisor (Xen-like): VM lifecycle, VM-exit handling, the OoH
// hypercall interface of §IV, and coexistence between the guest's use of
// PML (SPML) and the hypervisor's own (live migration).
//
// SMP: every PML session is per-vCPU (buffer, drain chain, SPML ring), and a
// hypercall always operates on the session of the vCPU it arrived on. The
// hypervisor's own harvest walks all vCPUs' buffers and dirty rings at a
// quiescent point. A VM's vCPUs all run on the thread that owns the VM.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "base/types.hpp"
#include "hypervisor/vm.hpp"
#include "sim/hw_if.hpp"
#include "sim/machine.hpp"

namespace ooh::hv {

class Hypervisor final : public sim::VmExitHandler {
 public:
  explicit Hypervisor(sim::Machine& machine) : machine_(machine) {}

  /// Create a VM with `mem_bytes` of guest-physical space and `vcpus`
  /// virtual CPUs, carving its host-frame partition from the machine (call
  /// on the setup thread). Host frames are demand-allocated from that
  /// partition on EPT violations.
  Vm& create_vm(u64 mem_bytes, std::size_t spml_ring_entries = 1u << 20,
                unsigned vcpus = 1);

  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] Vm& vm(std::size_t i) noexcept { return *vms_[i]; }

  // ---- sim::VmExitHandler ---------------------------------------------------
  void on_pml_full(sim::Vcpu& vcpu) override;
  void on_ept_violation(sim::Vcpu& vcpu, Gpa gpa, bool is_write) override;
  u64 on_hypercall(sim::Vcpu& vcpu, sim::Hypercall nr, u64 a0, u64 a1) override;

  // ---- hypervisor's own PML use (live migration, checkpoint) ----------------
  /// Start logging for the whole VM: clear all EPT dirty flags, flush every
  /// vCPU's TLB, arm PML on every vCPU.
  void enable_pml_for_hyp(Vm& vm);
  void disable_pml_for_hyp(Vm& vm);
  /// Quiescent harvest: flush every vCPU's in-flight PML buffer, then take
  /// the union of all dirty rings (+ spill logs) and re-arm logging.
  [[nodiscard]] std::vector<Gpa> harvest_hyp_dirty(Vm& vm);
  /// Final stop-and-copy harvest: drain + take the rings WITHOUT re-arming
  /// (no dirty-flag reset, no INVEPT) — the vCPUs are paused and will not
  /// run on this host again. Captures writes that landed between the last
  /// pre-copy harvest and the pause.
  [[nodiscard]] std::vector<Gpa> collect_dirty_paused(Vm& vm);

  // ---- working-set-size estimation (read-logging PML extension) -------------
  /// Start WSS sampling: PML logs on accessed-flag transitions, so the
  /// harvested set is the *touched* (read or written) pages -- the extension
  /// of Bitchebe et al. cited in the paper's related work. Mutually
  /// exclusive with a guest SPML session (one buffer, different meanings).
  void enable_wss_sampling(Vm& vm);
  void disable_wss_sampling(Vm& vm);
  /// Touched pages since the last harvest; resets accessed+dirty flags.
  [[nodiscard]] std::vector<Gpa> harvest_wss(Vm& vm);

  [[nodiscard]] sim::Machine& machine() noexcept { return machine_; }

  // ---- coherence-oracle seam -------------------------------------------------
  /// The environment (TestBed) may install a hook that audits one VM's
  /// cross-layer state; lower layers then request audits at their natural
  /// boundaries (collection intervals, migration rounds) without depending
  /// on the checker. The hook must be per-VM-scoped: tenants audit
  /// concurrently from worker threads.
  void set_audit_hook(std::function<void(u32 vm_index)> hook) {
    audit_hook_ = std::move(hook);
  }
  /// Run the installed audit hook over `vm_index` (no-op when absent).
  void audit_now(u32 vm_index) {
    if (audit_hook_) audit_hook_(vm_index);
  }

 private:
  [[nodiscard]] Vm& vm_of(const sim::Vcpu& vcpu);
  void ensure_pml_buffer(Vm& vm, unsigned cpu);
  /// Clear EPT dirty flags for `gpa_pages` and invalidate cached
  /// translations on every vCPU, re-arming PML for them (interval/round
  /// boundary). Charges land on `ctx` (the acting vCPU's timeline).
  void reset_dirty_for(Vm& vm, std::span<const Gpa> gpa_pages, sim::ExecContext& ctx);
  /// Copy vCPU `cpu`'s logged GPAs to their consumers, then reset the index.
  /// Dirty flags stay set until the consumer's interval boundary.
  void drain_pml_buffer(Vm& vm, unsigned cpu);
  void drain_all_pml_buffers(Vm& vm);
  /// Shatter every huge EPT leaf down to 4 KiB (KVM eager page splitting),
  /// charging one ept_split_leaf_us per split performed. No-op (and no
  /// charge) when the EPT has no huge leaves.
  void eager_split_all(Vm& vm, sim::ExecContext& ctx);
  void clear_all_ept_dirty(Vm& vm, sim::ExecContext& ctx);
  void update_pml_enable(Vm& vm, unsigned cpu);
  /// INVEPT-style whole-VM invalidation: flush each vCPU's TLB, counting and
  /// charging one kTlbFlush per vCPU on the acting context.
  void flush_all_tlbs(Vm& vm, sim::ExecContext& ctx);
  /// Quiescent ring harvest, deduplicated through Vm::harvest_bits() in
  /// first-seen order: each vCPU's ring in turn (event order), then each
  /// vCPU's spill log. Throws std::out_of_range for an entry at or beyond
  /// the VM's memory size.
  [[nodiscard]] std::vector<Gpa> take_ring_contents(Vm& vm);

  sim::Machine& machine_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::function<void(u32)> audit_hook_;
};

}  // namespace ooh::hv

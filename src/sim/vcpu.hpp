// Virtual CPU: VMX mode, VMCS pointers, and the instruction-level
// operations the OoH designs use (vmread/vmwrite from guest mode, vmcall).
//
// Each vCPU owns its ExecContext (clock, counters, TLB); nothing a vCPU
// charges or counts touches another vCPU's timeline.
#pragma once

#include <memory>

#include "base/counters.hpp"
#include "base/types.hpp"
#include "sim/exec_context.hpp"
#include "sim/hw_if.hpp"
#include "sim/page_track.hpp"
#include "sim/tlb.hpp"
#include "sim/vmcs.hpp"

namespace ooh::sim {

class Ept;

enum class CpuMode { kVmxRoot, kVmxNonRoot };

class Vcpu {
 public:
  /// `pmem` is the owning VM's host-frame partition; `vm_id` names that VM
  /// (the hypervisor routes exits by it); `cpu_index` is this vCPU's seat
  /// inside it (0 = the BSP).
  Vcpu(const CostModel& cost, PhysicalMemory& pmem, u32 vm_id, u32 cpu_index = 0);

  /// Identifier of the owning VM (historically "the vCPU id" when every VM
  /// had exactly one vCPU; kept as the exit-routing key).
  [[nodiscard]] u32 id() const noexcept { return id_; }
  [[nodiscard]] u32 vm_id() const noexcept { return id_; }
  /// Seat inside the VM: index into Vm::vcpu(i) and the mm_cpumask bit this
  /// vCPU occupies in the guest's shootdown protocol.
  [[nodiscard]] u32 cpu_index() const noexcept { return cpu_index_; }
  [[nodiscard]] CpuMode mode() const noexcept { return mode_; }

  /// This vCPU's private execution context (clock, counters, TLB).
  [[nodiscard]] ExecContext& ctx() noexcept { return ctx_; }
  [[nodiscard]] const ExecContext& ctx() const noexcept { return ctx_; }

  [[nodiscard]] Vmcs& vmcs() noexcept { return vmcs_; }
  [[nodiscard]] const Vmcs& vmcs() const noexcept { return vmcs_; }

  /// Shadow VMCS; created by the hypervisor when it enables shadowing.
  [[nodiscard]] Vmcs* shadow_vmcs() noexcept { return shadow_.get(); }
  Vmcs& create_shadow_vmcs();
  void destroy_shadow_vmcs();

  /// Per-field guest access control (the VMREAD/VMWRITE permission bitmaps
  /// of real VMCS shadowing). Only the hypervisor populates these; a guest
  /// vmread/vmwrite on an unlisted field traps (we surface it as an error).
  [[nodiscard]] VmcsFieldSet& shadow_readable() noexcept { return shadow_readable_; }
  [[nodiscard]] VmcsFieldSet& shadow_writable() noexcept { return shadow_writable_; }

  [[nodiscard]] Tlb& tlb() noexcept { return ctx_.tlb; }

  // -- wiring (done by the hypervisor / platform at VM setup) --------------
  void attach(VmExitHandler* exits, GuestIrqSink* irq, Ept* ept) noexcept {
    exits_ = exits;
    irq_ = irq;
    ept_ = ept;
  }
  [[nodiscard]] VmExitHandler* exits() noexcept { return exits_; }
  [[nodiscard]] GuestIrqSink* irq_sink() noexcept { return irq_; }
  [[nodiscard]] Ept* ept() noexcept { return ept_; }

  /// This vCPU's page-track notifier chain. The hardware PML logging
  /// circuits are registered first (at construction), so software consumers
  /// added later always observe events after the hardware logged them.
  [[nodiscard]] WriteTrackRegistry& track_registry() noexcept { return track_; }
  [[nodiscard]] const WriteTrackRegistry& track_registry() const noexcept {
    return track_;
  }

  /// The permanent hardware logging circuits (identity only; the coherence
  /// oracle verifies they head their chains).
  [[nodiscard]] const PageTrackNotifier* hyp_pml_circuit() const noexcept {
    return &hyp_pml_circuit_;
  }
  [[nodiscard]] const PageTrackNotifier* guest_pml_circuit() const noexcept {
    return &guest_pml_circuit_;
  }

  // -- guest-mode instructions ----------------------------------------------
  /// vmread executed in VMX non-root mode. Requires VMCS shadowing; reads
  /// the shadow VMCS without a VM-exit. Charges Table V(a) M7.
  [[nodiscard]] u64 guest_vmread(VmcsField f);

  /// vmwrite executed in VMX non-root mode against the shadow VMCS (M8).
  /// Implements the EPML ISA extension: a write to kGuestPmlAddress takes a
  /// GPA and stores the EPT-translated HPA, so the guest never sees HPAs
  /// and the page-walk circuit can log straight to RAM.
  void guest_vmwrite(VmcsField f, u64 value);

  /// vmcall: transition to root mode, dispatch to the hypervisor, return.
  u64 hypercall(Hypercall nr, u64 a0 = 0, u64 a1 = 0);

  // -- transitions (used by exit paths and the hypervisor) ------------------
  /// Run `fn` in VMX root mode, charging one VM-exit round trip.
  template <typename Fn>
  auto vmexit_to_root(Event reason, Fn&& fn) -> decltype(fn()) {
    begin_exit(reason);
    struct Restore {
      Vcpu& cpu;
      ~Restore() { cpu.mode_ = CpuMode::kVmxNonRoot; }
    } restore{*this};
    return fn();
  }

 private:
  void begin_exit(Event reason);

  ExecContext ctx_;
  u32 id_;
  u32 cpu_index_;
  CpuMode mode_ = CpuMode::kVmxNonRoot;
  Vmcs vmcs_{false};
  std::unique_ptr<Vmcs> shadow_;
  VmcsFieldSet shadow_readable_;
  VmcsFieldSet shadow_writable_;
  VmExitHandler* exits_ = nullptr;
  GuestIrqSink* irq_ = nullptr;
  Ept* ept_ = nullptr;
  WriteTrackRegistry track_;
  HypPmlLogger hyp_pml_circuit_;
  GuestPmlLogger guest_pml_circuit_;
};

}  // namespace ooh::sim

#include "sim/vcpu.hpp"

#include <stdexcept>

#include "sim/ept.hpp"

namespace ooh::sim {

Vcpu::Vcpu(const CostModel& cost, PhysicalMemory& pmem, u32 vm_id, u32 cpu_index)
    : ctx_(cost, pmem), id_(vm_id), cpu_index_(cpu_index) {
  // The hardware logging circuits are permanent chain members, first in
  // dispatch order; each checks its own VMCS arming per event, so an
  // unconfigured circuit is a no-op exactly like the un-enabled hardware.
  track_.register_notifier(TrackLayer::kGuestPtDirty, &guest_pml_circuit_);
  track_.register_notifier(TrackLayer::kEptAccessed, &hyp_pml_circuit_);
  track_.register_notifier(TrackLayer::kEptDirty, &hyp_pml_circuit_);
}

Vmcs& Vcpu::create_shadow_vmcs() {
  if (!shadow_) {
    shadow_ = std::make_unique<Vmcs>(/*shadow=*/true);
    vmcs_.write(VmcsField::kVmcsLinkPointer, reinterpret_cast<u64>(shadow_.get()));
  }
  return *shadow_;
}

void Vcpu::destroy_shadow_vmcs() {
  shadow_.reset();
  shadow_readable_ = {};
  shadow_writable_ = {};
  vmcs_.write(VmcsField::kVmcsLinkPointer, 0);
  vmcs_.set_control(kEnableVmcsShadowing, false);
}

u64 Vcpu::guest_vmread(VmcsField f) {
  if (mode_ != CpuMode::kVmxNonRoot) {
    throw std::logic_error("guest_vmread executed in root mode");
  }
  if (!vmcs_.control(kEnableVmcsShadowing) || shadow_ == nullptr) {
    // Without shadowing, vmread in non-root mode traps. OoH never takes this
    // path; treat it as a programming error rather than emulating the trap.
    throw std::logic_error("vmread in guest mode without VMCS shadowing");
  }
  if (!shadow_readable_.contains(f)) {
    throw std::logic_error("vmread of a field outside the shadowing read bitmap");
  }
  ctx_.count(Event::kVmread);
  ctx_.charge_us(ctx_.cost.vmread_us);
  return shadow_->read(f);
}

void Vcpu::guest_vmwrite(VmcsField f, u64 value) {
  if (mode_ != CpuMode::kVmxNonRoot) {
    throw std::logic_error("guest_vmwrite executed in root mode");
  }
  if (!vmcs_.control(kEnableVmcsShadowing) || shadow_ == nullptr) {
    throw std::logic_error("vmwrite in guest mode without VMCS shadowing");
  }
  if (!shadow_writable_.contains(f)) {
    throw std::logic_error("vmwrite of a field outside the shadowing write bitmap");
  }
  ctx_.count(Event::kVmwrite);
  ctx_.charge_us(ctx_.cost.vmwrite_us);
  if (f == VmcsField::kGuestPmlAddress) {
    // EPML ISA extension: the guest supplies a GPA; hardware translates it
    // through the EPT before storing so logging hits the right RAM page.
    if (ept_ == nullptr) throw std::logic_error("EPML vmwrite without an EPT");
    Hpa hpa = 0;
    if (value != 0 && !ept_->translate(value, hpa)) {
      throw std::runtime_error("EPML: guest PML buffer GPA not mapped in EPT");
    }
    shadow_->write(f, hpa);
    return;
  }
  shadow_->write(f, value);
}

u64 Vcpu::hypercall(Hypercall nr, u64 a0, u64 a1) {
  if (exits_ == nullptr) throw std::logic_error("hypercall with no VmExitHandler");
  return vmexit_to_root(Event::kHypercall,
                        [&] { return exits_->on_hypercall(*this, nr, a0, a1); });
}

void Vcpu::begin_exit(Event reason) {
  ctx_.count(Event::kVmExit);
  if (reason != Event::kVmExit) ctx_.count(reason);
  // Hypercall round-trip latency is folded into the per-hypercall constants
  // (Table V(a) M9..M14); other exits charge the bare transition here.
  if (reason != Event::kHypercall) ctx_.charge_us(ctx_.cost.vmexit_us);
  mode_ = CpuMode::kVmxRoot;
}

}  // namespace ooh::sim

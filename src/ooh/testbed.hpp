// TestBed: one Machine + hypervisor + N tenant VMs, each with a guest
// kernel -- the paper's experimental environment (§VI-A: one dedicated vCPU
// per VM, 5GB of guest memory, 1..5 tenant VMs for the scalability study).
//
// Tenant timelines are independent by construction: each vCPU owns its
// ExecContext and each VM owns its host-frame partition, carved from the
// machine when the bed is built. So run_tenants() can execute them on the
// epoch worker pool and still produce bit-identical per-VM results, HPAs
// included, to a serial run.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "base/cost_model.hpp"
#include "guest/kernel.hpp"
#include "hypervisor/hypervisor.hpp"
#include "sim/check/coherence.hpp"
#include "sim/fault/fault_plan.hpp"
#include "sim/fault/injector.hpp"
#include "sim/machine.hpp"

namespace ooh::lib {

struct TestBedOptions {
  u64 host_mem_bytes = 64 * kGiB;
  u64 vm_mem_bytes = 5 * kGiB;
  unsigned tenant_vms = 1;
  /// vCPUs per tenant VM. 1 (the default) reproduces the paper's
  /// one-dedicated-vCPU setup bit-identically; >1 builds SMP guests with
  /// per-vCPU dirty rings. A VM's vCPUs all run on the thread that owns it.
  unsigned vcpus_per_vm = 1;
  CostModel cost = CostModel::paper_calibrated();
  VirtDuration sched_quantum = secs(1.0);
  /// Back-fill EPT violations with 2 MiB PS-bit leaves (host THP). Off by
  /// default: the all-4 KiB configuration reproduces the paper's numbers
  /// bit-for-bit.
  bool ept_huge = false;
  /// With ept_huge: shatter huge leaves to 4 KiB when a hypervisor logging
  /// session starts (KVM eager page splitting). Meaningless without
  /// ept_huge; on by default so dirty logging keeps page precision.
  bool eager_split = true;
  /// Fault-injection schedule. Empty (the default) = no injector is wired
  /// at all: runs are bit-identical to a bed without the fault subsystem.
  /// Non-empty: each tenant vCPU gets its own FaultInjector executing this
  /// plan on its private timeline, with the CoherenceChecker installed as
  /// the post-fault audit hook.
  sim::fault::FaultPlan fault_plan;
};

class TestBed {
 public:
  explicit TestBed(const TestBedOptions& opts = {});

  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  [[nodiscard]] sim::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] hv::Hypervisor& hypervisor() noexcept { return *hypervisor_; }
  [[nodiscard]] unsigned tenant_count() const noexcept {
    return static_cast<unsigned>(kernels_.size());
  }
  [[nodiscard]] hv::Vm& vm(unsigned i = 0) { return hypervisor_->vm(i); }
  [[nodiscard]] guest::GuestKernel& kernel(unsigned i = 0) { return *kernels_.at(i); }
  /// Tenant i's execution context (its private clock and counters).
  [[nodiscard]] sim::ExecContext& ctx(unsigned i = 0) { return kernels_.at(i)->ctx(); }

  /// Execute `body(i)` once for every tenant VM.
  ///
  /// `threads <= 1`: plain serial loop on the calling thread.
  /// `threads  > 1`: on the epoch worker pool — up to that many host
  /// threads, each claiming whole tenant timelines (one VM runs on exactly
  /// one thread; VMs are never split across threads). `threads == 0`
  /// auto-sizes (epoch::EpochPool::auto_workers()). If timelines throw, the
  /// lowest-index tenant's exception is rethrown on the caller after all
  /// workers join, whatever the thread count.
  void run_tenants(const std::function<void(unsigned vm_index)>& body,
                   unsigned threads = 1);

  /// The machine-state coherence oracle, wired over every tenant. In audit
  /// builds (check::kCoherenceAuditsEnabled) it also runs automatically at
  /// collection intervals, migration rounds and at the end of each tenant's
  /// run_tenants() body, on that tenant's thread.
  [[nodiscard]] check::CoherenceChecker& checker() noexcept { return *checker_; }

  /// Full coherence audit of every tenant VM, host-frame partitions
  /// included. No-op unless this is an audit build — callable
  /// unconditionally from figure drivers without perturbing Release runs.
  void audit();

  /// Tenant i / vCPU `cpu`'s fault injector, or nullptr when the bed runs
  /// fault-free (TestBedOptions::fault_plan empty). Injectors are laid out
  /// tenant-major, `vcpus_per_vm` per tenant, so the historic single-index
  /// call fault_injector(i) still names tenant i's BSP injector at N=1.
  [[nodiscard]] sim::fault::FaultInjector* fault_injector(
      unsigned i = 0, unsigned cpu = 0) noexcept {
    const std::size_t idx = std::size_t{i} * vcpus_per_vm_ + cpu;
    return idx < injectors_.size() ? injectors_[idx].get() : nullptr;
  }

 private:
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<hv::Hypervisor> hypervisor_;
  std::vector<std::unique_ptr<guest::GuestKernel>> kernels_;
  std::vector<std::unique_ptr<sim::fault::FaultInjector>> injectors_;
  std::unique_ptr<check::CoherenceChecker> checker_;
  unsigned vcpus_per_vm_ = 1;
};

}  // namespace ooh::lib

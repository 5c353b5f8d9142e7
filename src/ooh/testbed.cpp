#include "ooh/testbed.hpp"

#include "sim/epoch/epoch_pool.hpp"

namespace ooh::lib {

TestBed::TestBed(const TestBedOptions& opts)
    : vcpus_per_vm_(opts.vcpus_per_vm == 0 ? 1 : opts.vcpus_per_vm) {
  machine_ = std::make_unique<sim::Machine>(opts.host_mem_bytes, opts.cost);
  hypervisor_ = std::make_unique<hv::Hypervisor>(*machine_);
  kernels_.reserve(opts.tenant_vms);
  for (unsigned i = 0; i < opts.tenant_vms; ++i) {
    hv::Vm& vm =
        hypervisor_->create_vm(opts.vm_mem_bytes, 1u << 20, vcpus_per_vm_);
    vm.set_ept_huge(opts.ept_huge);
    vm.set_eager_split(opts.eager_split);
    kernels_.push_back(std::make_unique<guest::GuestKernel>(*hypervisor_, vm));
    kernels_.back()->set_quantum_all(opts.sched_quantum);
  }
  checker_ = std::make_unique<check::CoherenceChecker>(*machine_, *hypervisor_);
  for (unsigned i = 0; i < opts.tenant_vms; ++i) {
    checker_->attach_kernel(kernels_[i]->vm().id(), *kernels_[i]);
  }
  if (check::kCoherenceAuditsEnabled) {
    // Lower layers (run_tracked collection intervals, migration rounds)
    // request audits through the hypervisor's hook; the hook is per-VM so
    // tenant worker threads can audit their own timelines concurrently.
    hypervisor_->set_audit_hook(
        [this](u32 vm_index) { checker_->audit_vm(vm_index); });
  }
  if (!opts.fault_plan.empty()) {
    // One injector per tenant vCPU: all fault state lives on that vCPU's own
    // timeline, so injected schedules replay deterministically even under
    // the worker pool. Every fired fault is chased by a full audit of the
    // blast-site VM (the FAULT-2 discipline). Layout is tenant-major so
    // fault_injector(i) keeps naming tenant i's BSP injector.
    injectors_.reserve(std::size_t{opts.tenant_vms} * vcpus_per_vm_);
    for (unsigned i = 0; i < opts.tenant_vms; ++i) {
      const u32 vm_index = kernels_[i]->vm().id();
      for (unsigned cpu = 0; cpu < vcpus_per_vm_; ++cpu) {
        injectors_.push_back(
            std::make_unique<sim::fault::FaultInjector>(opts.fault_plan));
        if (check::kCoherenceAuditsEnabled) {
          injectors_.back()->set_post_fault_hook(
              [this, vm_index] { checker_->audit_vm(vm_index); });
        }
        kernels_[i]->vm().vcpu(cpu).ctx().faults = injectors_.back().get();
      }
    }
  }
}

void TestBed::audit() {
  if (check::kCoherenceAuditsEnabled) checker_->audit_all();
}

void TestBed::run_tenants(const std::function<void(unsigned)>& body, unsigned threads) {
  // Each worker claims whole VM indices, so one timeline runs start-to-finish
  // on a single thread. Tenants share no mutable state except the machine's
  // sharded frame allocator, which is why this needs no further
  // synchronisation.
  epoch::Options opt;
  opt.threads = threads;
  epoch::EpochPool::run_indexed(
      tenant_count(), [&](std::size_t i) { body(static_cast<unsigned>(i)); }, opt);
  // Global passes (frame-ownership exclusivity) walk every VM's EPT, so
  // they only run once the workers have joined.
  audit();
}

}  // namespace ooh::lib

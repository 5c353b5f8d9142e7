#include "hypervisor/vm.hpp"

#include "sim/exec_context.hpp"
#include "sim/machine.hpp"

namespace ooh::hv {

Vm::Vm(sim::Machine& machine, u32 id, u64 mem_bytes, std::size_t spml_ring_entries,
       unsigned vcpus)
    : id_(id), mem_bytes_(mem_bytes), harvest_bits_(mem_bytes) {
  cpus_.reserve(vcpus == 0 ? 1 : vcpus);
  for (unsigned cpu = 0; cpu < (vcpus == 0 ? 1 : vcpus); ++cpu) {
    cpus_.push_back(std::make_unique<CpuState>(spml_ring_entries));
    cpus_.back()->vcpu = std::make_unique<sim::Vcpu>(machine, id, cpu);
  }
}

bool HypDirtyLogConsumer::on_track(sim::TrackLayer /*layer*/,
                                   const sim::TrackEvent& ev) {
  const unsigned cpu = ev.vcpu->cpu_index();
  DirtyRing& ring = vm_.dirty_ring(cpu);
  sim::ExecContext& ctx = ev.vcpu->ctx();
  // Adversarial ring-full (kDirtyRingFull) forces the spill path even when
  // the ring has room, mirroring the kPmlForceFull pattern: the fault is
  // noted here but audited only after the in-flight PML drain settles the
  // buffer index (Vm::take_ring_fault in Hypervisor::drain_pml_buffer).
  const bool faulted = ctx.fault_fire(sim::fault::FaultPoint::kDirtyRingFull);
  if (faulted || !ring.try_push(ev.gpa_page)) {
    ring.spill(ev.gpa_page);
    ctx.count(Event::kDirtyRingFull);
    if (faulted) vm_.note_ring_fault(cpu);
  }
  return true;
}

bool SpmlRingConsumer::on_track(sim::TrackLayer /*layer*/,
                                const sim::TrackEvent& ev) {
  const unsigned cpu = ev.vcpu->cpu_index();
  vm_.spml_ring(cpu).push(ev.gpa_page);
  vm_.spml_interval_log(cpu).push_back(ev.gpa_page);
  ev.vcpu->ctx().count(Event::kRingBufCopyEntry);
  return true;
}

}  // namespace ooh::hv

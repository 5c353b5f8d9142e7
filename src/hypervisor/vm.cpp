#include "hypervisor/vm.hpp"

#include <algorithm>

#include "sim/exec_context.hpp"
#include "sim/machine.hpp"

namespace ooh::hv {

Vm::Vm(sim::Machine& machine, u32 id, u64 mem_bytes, std::size_t spml_ring_entries,
       unsigned vcpus)
    : id_(id),
      mem_bytes_(mem_bytes),
      // The window: one frame per guest page plus one PML buffer per vCPU,
      // or what the host has left. A GPA maps at most one frame at a time
      // and freed frames are recycled; only a huge-leaf run needs fresh
      // bump frames, and the backfill falls back to 4 KiB when none are
      // left (Hypervisor::on_ept_violation).
      pmem_(machine.carve(pages_for_bytes(mem_bytes) + std::max(vcpus, 1u))),
      harvest_bits_(mem_bytes) {
  cpus_.reserve(vcpus == 0 ? 1 : vcpus);
  for (unsigned cpu = 0; cpu < (vcpus == 0 ? 1 : vcpus); ++cpu) {
    cpus_.push_back(std::make_unique<CpuState>(spml_ring_entries));
    cpus_.back()->vcpu = std::make_unique<sim::Vcpu>(machine.cost, pmem_, id, cpu);
  }
}

bool HypDirtyLogConsumer::on_track(sim::TrackLayer /*layer*/,
                                   const sim::TrackEvent& ev) {
  on_drain(*ev.vcpu, {&ev.gpa_page, 1});
  return true;
}

void HypDirtyLogConsumer::on_drain(sim::Vcpu& vcpu, std::span<const Gpa> gpas) {
  const unsigned cpu = vcpu.cpu_index();
  DirtyRing& ring = vm_.dirty_ring(cpu);
  sim::ExecContext& ctx = vcpu.ctx();
  for (const Gpa gpa : gpas) {
    // Adversarial ring-full (kDirtyRingFull) forces the spill path even when
    // the ring has room, mirroring the kPmlForceFull pattern: one fault
    // arrival per GPA. The fault is noted here but audited only after the
    // in-flight PML drain settles the buffer index (Vm::take_ring_fault in
    // Hypervisor::drain_pml_buffer).
    const bool faulted = ctx.fault_fire(sim::fault::FaultPoint::kDirtyRingFull);
    if (faulted || !ring.try_push(gpa)) {
      ring.spill(gpa);
      ctx.count(Event::kDirtyRingFull);
      if (faulted) vm_.note_ring_fault(cpu);
    }
  }
}

bool SpmlRingConsumer::on_track(sim::TrackLayer /*layer*/,
                                const sim::TrackEvent& ev) {
  on_drain(*ev.vcpu, {&ev.gpa_page, 1});
  return true;
}

void SpmlRingConsumer::on_drain(sim::Vcpu& vcpu, std::span<const Gpa> gpas) {
  const unsigned cpu = vcpu.cpu_index();
  vm_.spml_ring(cpu).append(gpas);
  std::vector<Gpa>& log = vm_.spml_interval_log(cpu);
  log.insert(log.end(), gpas.begin(), gpas.end());
  vcpu.ctx().count(Event::kRingBufCopyEntry, gpas.size());
}

}  // namespace ooh::hv

#include "guest/procfs.hpp"

#include "guest/kernel.hpp"

namespace ooh::guest {

void ProcFs::clear_refs(Process& proc) {
  sim::ExecContext& m = kernel_.ctx_of(proc);
  m.count(Event::kClearRefs);
  m.count(Event::kContextSwitch, 2);  // the write() syscall's world switches
  m.charge_us(m.cost.clear_refs_us(proc.mapped_bytes()) + 2 * m.cost.ctx_switch_us);

  // Clear soft-dirty and write-protect every present PTE so the next store
  // faults; the fault handler restores write access and re-sets the bit.
  kernel_.page_table(proc).for_each_present([](Gva, sim::Pte& pte) {
    pte.soft_dirty = false;
    pte.writable = false;
  });
  // Permission-reducing PT update: shoot down every vCPU in the cpumask.
  kernel_.tlb_flush_pid(proc);
  m.count(Event::kTlbFlush);
  m.charge_us(m.cost.tlb_flush_us);
}

std::vector<Gva> ProcFs::pagemap_dirty(Process& proc) {
  sim::ExecContext& m = kernel_.ctx_of(proc);
  m.count(Event::kPagemapScan);
  m.count(Event::kContextSwitch, 2);
  m.charge_us(m.cost.pagemap_scan_us(proc.mapped_bytes()) + 2 * m.cost.ctx_switch_us);

  std::vector<Gva> dirty;
  kernel_.page_table(proc).for_each_present([&](Gva gva, sim::Pte& pte) {
    if (pte.soft_dirty) dirty.push_back(gva);
  });
  return dirty;
}

bool ProcFs::on_track(sim::TrackLayer /*layer*/, const sim::TrackEvent& ev) {
  Process* proc = kernel_.find(ev.pid);
  if (proc == nullptr) return false;
  sim::Pte* pte = kernel_.page_table(*proc).pte(ev.gva_page);
  if (pte == nullptr || !pte->present) return false;

  // Soft-dirty write-protect fault (/proc technique): set the bit, restore
  // write access (Table V metric M5 per fault, plus two world switches).
  // Charges land on the faulting vCPU (ev.vcpu is the process's own).
  sim::ExecContext& m = kernel_.ctx_of(*proc);
  m.count(Event::kPageFaultSoftDirty);
  m.count(Event::kContextSwitch, 2);
  m.charge_us(m.cost.pfh_kernel_per_fault_us(proc->mapped_bytes()) +
              2 * m.cost.ctx_switch_us);
  pte->soft_dirty = true;
  pte->writable = true;
  ev.vcpu->tlb().invalidate_page(ev.pid, ev.gva_page);
  return true;
}

sim::GuestPageTable& ProcFs::page_table(Process& proc) {
  return kernel_.page_table(proc);
}

}  // namespace ooh::guest

#include "guest/ooh_module.hpp"

#include <bit>
#include <new>
#include <stdexcept>

#include "hypervisor/hypervisor.hpp"

namespace ooh::guest {

OohModule::OohModule(GuestKernel& kernel, OohMode mode)
    : kernel_(kernel), mode_(mode), cpus_(kernel.vcpu_count()) {
  for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
    kernel_.scheduler(cpu).add_hook(this);
  }
}

OohModule::~OohModule() {
  // Untrack everything, then tear the design down.
  while (!tracked_.empty()) {
    Process* p = tracked_.begin()->second.proc;
    untrack(*p);
  }
  for (unsigned cpu = 0; cpu < cpus_.size(); ++cpu) {
    if (cpus_[cpu].epml_init) {
      // Safety net for an EPML session with no surviving tracked process (a
      // track() that failed after the init hypercall): the shadow-VMCS state
      // must not outlive the module on any vCPU.
      kernel_.vm().vcpu(cpu).hypercall(sim::Hypercall::kOohDeactivateEpml);
      cpus_[cpu].epml_init = false;
    }
  }
  for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
    kernel_.scheduler(cpu).remove_hook(this);
  }
}

bool OohModule::tracking(const Process& proc) const {
  return tracked_.contains(proc.pid());
}

OohModule::Tracked* OohModule::active_tracked(unsigned cpu) noexcept {
  const u32 pid = cpus_[cpu].active_pid;
  if (pid == 0) return nullptr;
  const auto it = tracked_.find(pid);
  return it == tracked_.end() ? nullptr : &it->second;
}

void OohModule::track(Process& proc) {
  if (tracking(proc)) throw std::logic_error("process already tracked");
  const unsigned cpu = proc.cpu();
  sim::ExecContext& m = kernel_.ctx_of(proc);
  sim::Vcpu& vcpu = kernel_.vcpu_of(proc);

  // The userspace ioctl into the module (Table V metric M3).
  m.count(Event::kContextSwitch, 2);
  m.charge_us(m.cost.ioctl_init_pml_us + 2 * m.cost.ctx_switch_us);

  Tracked t;
  t.proc = &proc;
  t.ring = std::make_unique<RingBuffer>(ring_entries_);

  if (mode_ == OohMode::kSpml) {
    arm(t, cpu);
  } else {
    if (!cpus_[cpu].epml_init) {
      // The only hypercall EPML ever makes (M10): VMCS shadowing + the new
      // guest PML VMCS fields — per-vCPU hardware state, armed on the vCPU
      // this process runs on.
      vcpu.hypercall(sim::Hypercall::kOohInitEpml);
      cpus_[cpu].epml_init = true;
    }
    // Guest-level PML buffer: a guest-physical page the module owns. It must
    // be EPT-mapped so the EPML vmwrite can translate it. If either step
    // fails (guest OOM), roll the half-done init back — leaving VMCS
    // shadowing armed with no tracked process would leak the EPML session.
    try {
      t.guest_buf_gpa = kernel_.alloc_gpa_frame(m);
      kernel_.ensure_ept_mapped(t.guest_buf_gpa, cpu);
    } catch (...) {
      if (t.guest_buf_gpa != 0) kernel_.free_gpa_frame(t.guest_buf_gpa);
      if (tracked_.empty() && cpus_[cpu].epml_init) {
        vcpu.hypercall(sim::Hypercall::kOohDeactivateEpml);
        cpus_[cpu].epml_init = false;
      }
      throw;
    }
    // Reset guest dirty flags so the first interval logs pre-dirtied pages.
    u64 cleared = 0;
    kernel_.page_table(proc).for_each_present([&](Gva, sim::Pte& pte) {
      if (pte.dirty) {
        pte.dirty = false;
        ++cleared;
      }
    });
    m.charge_ns(m.cost.dbit_clear_ns * static_cast<double>(cleared));
    kernel_.tlb_flush_pid(proc);
    m.count(Event::kTlbFlush);
    m.charge_us(m.cost.tlb_flush_us);
    t.armed_cpus = u64{1} << cpu;
  }
  tracked_.emplace(proc.pid(), std::move(t));
}

void OohModule::arm(Tracked& t, unsigned cpu) {
  const u64 bit = u64{1} << cpu;
  if ((t.armed_cpus & bit) != 0) return;
  sim::Vcpu& vcpu = kernel_.vm().vcpu(cpu);
  if (mode_ == OohMode::kSpml) {
    // SPML init hypercall (M9): PML buffer setup + EPT dirty-state reset.
    // The hypervisor reports allocation failure instead of dying half-set-up;
    // surface it as the OOM it is so the tracker layer can degrade.
    const u64 rc = vcpu.hypercall(sim::Hypercall::kOohInitPml, t.proc->mapped_bytes());
    if (rc == ~u64{0}) throw std::bad_alloc{};
  } else {
    if (!cpus_[cpu].epml_init) {
      vcpu.hypercall(sim::Hypercall::kOohInitEpml);
      cpus_[cpu].epml_init = true;
    }
    kernel_.ensure_ept_mapped(t.guest_buf_gpa, cpu);
  }
  t.armed_cpus |= bit;
}

void OohModule::untrack(Process& proc) {
  const auto it = tracked_.find(proc.pid());
  if (it == tracked_.end()) throw std::logic_error("process not tracked");
  const unsigned cpu = proc.cpu();
  sim::ExecContext& m = kernel_.ctx_of(proc);

  if (cpus_[cpu].active_pid == proc.pid()) on_schedule_out(proc.pid());

  m.count(Event::kContextSwitch, 2);
  m.charge_us(m.cost.ioctl_deactivate_pml_us + 2 * m.cost.ctx_switch_us);

  const u64 armed = it->second.armed_cpus;
  tracked_.erase(it);
  if (mode_ == OohMode::kSpml) {
    // A vCPU's PML session, and the drain consumer behind it, serves every
    // SPML process armed there: end it only where no other session is armed.
    u64 still_armed = 0;
    for (const auto& [pid, other] : tracked_) still_armed |= other.armed_cpus;
    for (u64 left = armed & ~still_armed; left != 0; left &= left - 1) {
      const auto c = static_cast<unsigned>(std::countr_zero(left));
      kernel_.vm().vcpu(c).hypercall(sim::Hypercall::kOohDeactivatePml);
    }
  } else if (tracked_.empty()) {
    for (unsigned c = 0; c < cpus_.size(); ++c) {
      if (cpus_[c].epml_init) {
        kernel_.vm().vcpu(c).hypercall(sim::Hypercall::kOohDeactivateEpml);
        cpus_[c].epml_init = false;
      }
    }
  }
}

void OohModule::on_schedule_in(u32 pid) {
  const auto it = tracked_.find(pid);
  if (it == tracked_.end()) return;
  const unsigned cpu = it->second.proc->cpu();
  arm(it->second, cpu);  // a no-op unless the process migrated here
  cpus_[cpu].active_pid = pid;
  sim::Vcpu& vcpu = kernel_.vm().vcpu(cpu);
  if (mode_ == OohMode::kSpml) {
    if (vcpu.hypercall(sim::Hypercall::kOohEnableLogging) != 0) {
      throw std::logic_error("SPML logging not armed on the vCPU");
    }
  } else {
    // Point the hardware at this process's buffer and arm logging, all with
    // guest-mode vmwrites on the shadow VMCS -- no VM-exit (§IV-D).
    vcpu.guest_vmwrite(sim::VmcsField::kGuestPmlAddress, it->second.guest_buf_gpa);
    vcpu.guest_vmwrite(sim::VmcsField::kGuestPmlEnable, 1);
  }
}

void OohModule::on_schedule_out(u32 pid) {
  const auto it = tracked_.find(pid);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;
  const unsigned cpu = t.proc->cpu();
  sim::ExecContext& m = kernel_.ctx_of(*t.proc);
  sim::Vcpu& vcpu = kernel_.vm().vcpu(cpu);
  if (mode_ == OohMode::kSpml) {
    // disable_logging flushes the in-flight PML buffer into the shared ring
    // (M14); the module then moves the GPAs into this process's private ring
    // (the per-process isolation fix of §V).
    vcpu.hypercall(sim::Hypercall::kOohDisableLogging, t.proc->mapped_bytes());
    const std::size_t moved = kernel_.vm().spml_ring(cpu).move_to(*t.ring);
    for (std::size_t i = 0; i < moved; ++i) m.charge_ns(m.cost.drain_entry_ns);
  } else {
    epml_drain_guest_buffer(t, cpu);
    vcpu.guest_vmwrite(sim::VmcsField::kGuestPmlEnable, 0);
  }
  cpus_[cpu].active_pid = 0;
}

void OohModule::epml_drain_guest_buffer(Tracked& t, unsigned cpu) {
  sim::ExecContext& m = kernel_.ctx_of(*t.proc);
  sim::Vcpu& vcpu = kernel_.vm().vcpu(cpu);
  const u16 idx = static_cast<u16>(vcpu.guest_vmread(sim::VmcsField::kGuestPmlIndex));
  const u64 count =
      idx > kPmlIndexStart ? kPmlBufferEntries : static_cast<u64>(kPmlIndexStart - idx);
  if (count == 0) return;

  Hpa buf_hpa = 0;
  if (!kernel_.vm().ept().translate(t.guest_buf_gpa, buf_hpa)) {
    throw std::logic_error("EPML guest buffer lost its EPT mapping");
  }
  // Reentrancy guard: a self-IPI raised while this drain runs (the buffer
  // refills from an interrupt-window write) must not start a nested drain —
  // it would re-read slots already copied and reset the index twice,
  // double-counting or losing entries. Nested IPIs are deferred and
  // redelivered once below. One guard per vCPU: drains on different vCPUs
  // are independent PML instances.
  cpus_[cpu].draining = true;
  sim::GuestPageTable& pt = kernel_.page_table(*t.proc);
  // Walk from slot 511 downward: logging order (the index counts down).
  const u64 first_slot = kPmlBufferEntries - count;
  for (u64 slot = kPmlBufferEntries; slot-- > first_slot;) {
    const u64 entry = m.pmem.read_u64(buf_hpa + slot * 8);
    m.charge_ns(m.cost.drain_entry_ns);
    // A gran-tagged entry (the guest mapped this region with a PS-bit leaf)
    // expands to every 4 KiB page it covers; a 4K entry (gran code 0) takes
    // the loop exactly once with base == entry, as before.
    const Gva base = pml_entry_base(entry);
    const PageGran gran = pml_entry_gran(entry);
    for (u64 i = 0; i < gran_pages(gran); ++i) {
      const Gva gva_page = base + i * kPageSize;
      // Re-validate against the page table: the page may have been swapped
      // out or unmapped after the write was logged. A stale GVA must not
      // reach userspace — the address may already belong to a new mapping.
      if (const sim::Pte* pte = pt.pte(gva_page);
          pte == nullptr || !pte->present) {
        m.count(Event::kEpmlStaleEntryDropped);
        continue;
      }
      t.ring->push(gva_page);
      m.count(Event::kRingBufCopyEntry);
    }
  }
  if (mid_drain_hook_) {
    // Test seam: runs exactly once, in the window where the slots have been
    // copied but the index is not yet reset (the nested-full window).
    const std::function<void()> hook = std::move(mid_drain_hook_);
    mid_drain_hook_ = nullptr;
    hook();
  }
  // Dirty flags stay set until fetch() (the interval boundary), so a page
  // logs once per interval instead of once per drain.
  vcpu.guest_vmwrite(sim::VmcsField::kGuestPmlIndex, kPmlIndexStart);
  cpus_[cpu].draining = false;
  if (cpus_[cpu].ipi_deferred) {
    // Deferred redelivery: rerun the handler now that the index is reset,
    // picking up whatever filled the buffer while we were draining.
    cpus_[cpu].ipi_deferred = false;
    handle_guest_pml_full(cpu);
  }
}

void OohModule::handle_guest_pml_full(unsigned cpu) {
  if (cpus_[cpu].draining) {
    cpus_[cpu].ipi_deferred = true;
    return;
  }
  Tracked* t = active_tracked(cpu);
  if (t == nullptr) {
    // Spurious IPI (no tracked process active): reset the index and return.
    kernel_.vm().vcpu(cpu).guest_vmwrite(sim::VmcsField::kGuestPmlIndex,
                                         kPmlIndexStart);
    return;
  }
  epml_drain_guest_buffer(*t, cpu);
}

std::vector<u64> OohModule::fetch(Process& proc) {
  const auto it = tracked_.find(proc.pid());
  if (it == tracked_.end()) throw std::logic_error("process not tracked");
  Tracked& t = it->second;
  const unsigned cpu = proc.cpu();
  sim::ExecContext& m = kernel_.ctx_of(proc);

  m.count(Event::kContextSwitch, 2);  // the fetch ioctl
  m.charge_us(2 * m.cost.ctx_switch_us);

  // Flush the partial in-flight hardware buffer so the caller sees
  // everything logged so far (completeness; evaluation question 3).
  if (mode_ == OohMode::kEpml && cpus_[cpu].active_pid == proc.pid()) {
    epml_drain_guest_buffer(t, cpu);
  }
  if (mode_ == OohMode::kSpml) {
    // The interval-reset hypercall drains the PML buffer into the shared
    // ring and re-arms the consumed pages; move the new entries into this
    // process's private ring before handing them to userspace. Every vCPU
    // the session armed may have logged for it (the process migrated).
    for (u64 left = t.armed_cpus; left != 0; left &= left - 1) {
      const auto c = static_cast<unsigned>(std::countr_zero(left));
      kernel_.vm().vcpu(c).hypercall(sim::Hypercall::kOohIntervalReset);
      const std::size_t moved = kernel_.vm().spml_ring(c).move_to(*t.ring);
      for (std::size_t i = 0; i < moved; ++i) m.charge_ns(m.cost.drain_entry_ns);
    }
  }

  std::vector<u64> out = t.ring->drain();
  // Copying the ring into userspace (Table V metric M18, per entry).
  m.count(Event::kRingBufFetchEntry, out.size());
  m.charge_us(m.cost.rb_copy_per_entry_us(proc.mapped_bytes()) *
              static_cast<double>(out.size()));

  // Interval boundary (EPML): re-arm logging for every page handed to
  // userspace. (SPML's re-arm happened in the interval-reset hypercall.)
  if (mode_ == OohMode::kEpml) {
    sim::GuestPageTable& pt = kernel_.page_table(proc);
    u64 cleared = 0;
    for (const u64 gva_page : out) {
      if (sim::Pte* pte = pt.pte(gva_page); pte != nullptr && pte->dirty) {
        pte->dirty = false;
        ++cleared;
        kernel_.tlb_invalidate_page(proc, gva_page);
      }
    }
    m.charge_ns(m.cost.dbit_clear_ns * static_cast<double>(cleared));
  }
  return out;
}

u64 OohModule::dropped(const Process& proc) const {
  const auto it = tracked_.find(proc.pid());
  return it == tracked_.end() ? 0 : it->second.ring->dropped();
}

}  // namespace ooh::guest

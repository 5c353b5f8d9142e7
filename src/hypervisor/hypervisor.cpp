#include "hypervisor/hypervisor.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace ooh::hv {

Vm& Hypervisor::create_vm(u64 mem_bytes, std::size_t spml_ring_entries,
                          unsigned vcpus) {
  const u32 id = static_cast<u32>(vms_.size());
  auto vm = std::make_unique<Vm>(machine_, id, mem_bytes, spml_ring_entries, vcpus);
  for (unsigned cpu = 0; cpu < vm->vcpu_count(); ++cpu) {
    vm->vcpu(cpu).attach(this, nullptr, &vm->ept());
    vm->vcpu(cpu).vmcs().write(sim::VmcsField::kEptPointer, id + 1);
  }
  vms_.push_back(std::move(vm));
  return *vms_.back();
}

Vm& Hypervisor::vm_of(const sim::Vcpu& vcpu) {
  const u32 id = vcpu.vm_id();
  if (id >= vms_.size()) throw std::logic_error("vCPU does not belong to any VM");
  return *vms_[id];
}

void Hypervisor::ensure_pml_buffer(Vm& vm, unsigned cpu) {
  if (vm.pml_buffer(cpu) == 0) {
    if (vm.vcpu(cpu).ctx().fault_fire(sim::fault::FaultPoint::kFrameAllocFail)) {
      // Injected host OOM: same failure a packed host produces when the
      // 4KiB PML buffer cannot be allocated (KVM's vmx_create_vcpu path).
      throw std::bad_alloc{};
    }
    vm.pml_buffer(cpu) = machine_.pmem.alloc_frame();
    vm.vcpu(cpu).vmcs().write(sim::VmcsField::kPmlAddress, vm.pml_buffer(cpu));
    vm.vcpu(cpu).vmcs().write(sim::VmcsField::kPmlIndex, kPmlIndexStart);
  }
}

void Hypervisor::update_pml_enable(Vm& vm, unsigned cpu) {
  // Hardware PML runs iff some drain consumer wants events right now: the
  // hypervisor's own consumer whenever registered, the guest's SPML
  // consumer only while logging is on. N consumers, one control bit per
  // vCPU.
  const bool on = vm.track(cpu).any_enabled(sim::TrackLayer::kPmlDrain);
  vm.vcpu(cpu).vmcs().set_control(sim::kEnablePml, on);
}

void Hypervisor::flush_all_tlbs(Vm& vm, sim::ExecContext& ctx) {
  // INVEPT is VM-scoped: every vCPU's cached translations die, and the
  // acting vCPU pays one flush charge per vCPU it invalidated.
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    vm.vcpu(cpu).tlb().flush_all();
    ctx.count(Event::kTlbFlush);
    ctx.charge_us(ctx.cost.tlb_flush_us);
  }
}

void Hypervisor::clear_all_ept_dirty(Vm& vm, sim::ExecContext& ctx) {
  u64 cleared = 0;
  vm.ept().for_each_present([&](Gpa, sim::EptEntry& e) {
    if (e.dirty) {
      e.dirty = false;
      ++cleared;
    }
  });
  ctx.charge_ns(ctx.cost.dbit_clear_ns * static_cast<double>(cleared));
  flush_all_tlbs(vm, ctx);
}

void Hypervisor::drain_pml_buffer(Vm& vm, unsigned cpu) {
  sim::Vcpu& vcpu = vm.vcpu(cpu);
  sim::ExecContext& ctx = vcpu.ctx();
  sim::Vmcs& vmcs = vcpu.vmcs();
  if (vm.pml_buffer(cpu) == 0) return;
  const u16 idx = static_cast<u16>(vmcs.read(sim::VmcsField::kPmlIndex));
  // Entries occupy slots idx+1 .. 511; a wrapped index (0xFFFF) means all 512.
  const u64 count = idx > kPmlIndexStart ? kPmlBufferEntries
                                         : static_cast<u64>(kPmlIndexStart - idx);
  if (count == 0) return;

  // Slot 511 holds the oldest entry (the index counts down); walk newest-
  // last so consumers see logging order. Each entry is charged as it is
  // read; the consumers run after the loop, which is exact because no
  // kPmlDrain consumer charges virtual time (page_track.hpp).
  //
  // Coexistence routing (paper §IV-C item 3), generalized: every enabled
  // kPmlDrain consumer gets every GPA. Dirty flags stay set until the
  // consumer's interval boundary (collect/harvest), so an already-logged
  // page does not re-log on every later write -- matching how Xen
  // harvests PML. A gran-tagged entry (huge EPT leaf, no eager split)
  // expands here to every 4 KiB page it covers, so rings and consumers
  // stay page-granular — the drain is where PML's leaf-size imprecision
  // becomes visible as a dirty-page superset. A 4 KiB entry (gran code 0)
  // is its own GPA.
  const u8* slots = ctx.pmem.frame_data_if_present(vm.pml_buffer(cpu));
  std::vector<Gpa>& pages = vm.drain_pages(cpu);
  pages.clear();
  const u64 first_slot = kPmlBufferEntries - count;
  for (u64 slot = kPmlBufferEntries; slot-- > first_slot;) {
    u64 entry = 0;
    if (slots != nullptr) std::memcpy(&entry, slots + slot * 8, sizeof entry);
    ctx.charge_ns(ctx.cost.drain_entry_ns);
    const Gpa base = pml_entry_base(entry);
    for (u64 i = 0; i < gran_pages(pml_entry_gran(entry)); ++i) {
      pages.push_back(base + i * kPageSize);
    }
  }
  vm.track(cpu).dispatch_drain(vcpu, pages);
  vmcs.write(sim::VmcsField::kPmlIndex, kPmlIndexStart);
  // A kDirtyRingFull fault fired mid-drain settles here, with the buffer
  // index reset and the diverted entry safely in the spill log (FAULT-2).
  if (vm.take_ring_fault(cpu)) ctx.fault_audit();
}

void Hypervisor::drain_all_pml_buffers(Vm& vm) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) drain_pml_buffer(vm, cpu);
}

void Hypervisor::reset_dirty_for(Vm& vm, std::span<const Gpa> gpa_pages,
                                 sim::ExecContext& ctx) {
  u64 cleared = 0;
  for (const Gpa gpa : gpa_pages) {
    if (sim::EptEntry* e = vm.ept().entry(gpa); e != nullptr && e->dirty) {
      e->dirty = false;
      ++cleared;
    }
  }
  ctx.charge_ns(ctx.cost.dbit_clear_ns * static_cast<double>(cleared));
  // Cleared dirty flags require invalidating cached translations (INVEPT).
  flush_all_tlbs(vm, ctx);
}

void Hypervisor::on_pml_full(sim::Vcpu& vcpu) {
  drain_pml_buffer(vm_of(vcpu), vcpu.cpu_index());
}

void Hypervisor::on_ept_violation(sim::Vcpu& vcpu, Gpa gpa, bool /*is_write*/) {
  Vm& vm = vm_of(vcpu);
  if (page_floor(gpa) >= vm.mem_bytes()) {
    throw std::runtime_error("EPT violation beyond the VM's memory size");
  }
  if (vm.ept_huge() && !vm.eager_split_active()) {
    // THP-style backfill: map the whole 2 MiB region with one PS-bit leaf
    // when it fits the VM and nothing in it is mapped yet (GRAN-1). While
    // an eager-split logging session runs, faults map at 4 KiB — KVM does
    // the same so dirty logging keeps page precision.
    const Gpa base = gran_floor(gpa, PageGran::k2M);
    if (base + gran_size(PageGran::k2M) <= vm.mem_bytes() &&
        vm.ept().range_unmapped(base, PageGran::k2M)) {
      const Hpa run =
          machine_.pmem.alloc_frames_contiguous(gran_pages(PageGran::k2M));
      vm.ept().map_huge(base, run, PageGran::k2M, /*writable=*/true);
      return;
    }
  }
  const Hpa frame = machine_.pmem.alloc_frame();
  vm.ept().map(page_floor(gpa), frame, /*writable=*/true);
}

u64 Hypervisor::on_hypercall(sim::Vcpu& vcpu, sim::Hypercall nr, u64 a0, u64 a1) {
  Vm& vm = vm_of(vcpu);
  const unsigned cpu = vcpu.cpu_index();
  sim::ExecContext& ctx = vcpu.ctx();
  const CostModel& cost = ctx.cost;
  switch (nr) {
    case sim::Hypercall::kOohInitPml:
      // SPML setup (M9): allocate the calling vCPU's PML buffer and reset
      // dirty state so the first tracking interval starts from a clean
      // slate. The guest may not start while the hypervisor is tearing
      // down, and vice versa -- the flags arbitrate (§IV-C item 3).
      ctx.charge_us(cost.hc_init_pml_us);
      try {
        ensure_pml_buffer(vm, cpu);
      } catch (const std::bad_alloc&) {
        // No buffer, no session: report failure to the guest rather than
        // killing the VM. The module surfaces it; the tracker degrades.
        ctx.fault_audit();
        return ~u64{0};
      }
      clear_all_ept_dirty(vm, ctx);
      // Session start == consumer registration; it joins the drain chain
      // disabled (no logging until the tracked process is scheduled in).
      if (!vm.pml_enabled_by_guest(cpu)) {
        vm.track(cpu).register_notifier(sim::TrackLayer::kPmlDrain,
                                        &vm.spml_drain_consumer(), /*enabled=*/false);
      }
      vm.spml_tracked_mem_bytes(cpu) = a0;
      return 0;
    case sim::Hypercall::kOohDeactivatePml:
      ctx.charge_us(cost.hc_deact_pml_us);
      drain_pml_buffer(vm, cpu);
      if (vm.pml_enabled_by_guest(cpu)) {
        vm.track(cpu).unregister_notifier(sim::TrackLayer::kPmlDrain,
                                          &vm.spml_drain_consumer());
      }
      update_pml_enable(vm, cpu);
      return 0;
    case sim::Hypercall::kOohEnableLogging:
      ctx.charge_us(cost.hc_enable_logging_us);
      if (!vm.pml_enabled_by_guest(cpu)) return u64(-1);
      vm.track(cpu).set_enabled(sim::TrackLayer::kPmlDrain,
                                &vm.spml_drain_consumer(), true);
      update_pml_enable(vm, cpu);
      return 0;
    case sim::Hypercall::kOohDisableLogging:
      // M14: cost depends on the tracked process's memory size because the
      // in-flight buffer is flushed to the ring on the way out.
      ctx.charge_us(cost.spml_disable_logging_us(
          a0 != 0 ? a0 : vm.spml_tracked_mem_bytes(cpu)));
      drain_pml_buffer(vm, cpu);
      if (vm.pml_enabled_by_guest(cpu)) {
        vm.track(cpu).set_enabled(sim::TrackLayer::kPmlDrain,
                                  &vm.spml_drain_consumer(), false);
      }
      update_pml_enable(vm, cpu);
      return 0;
    case sim::Hypercall::kOohInitEpml: {
      // EPML setup (M10): VMCS shadowing plus the new guest PML fields on
      // the calling vCPU. This is the *only* hypercall EPML performs
      // (§IV-D).
      ctx.charge_us(cost.hc_init_pml_shadow_us);
      sim::Vmcs& shadow = vcpu.create_shadow_vmcs();
      shadow.write(sim::VmcsField::kGuestPmlIndex, kPmlIndexStart);
      // Shadowing permission bitmaps: the guest may touch exactly the three
      // EPML fields, nothing else in the VMCS.
      for (const sim::VmcsField f :
           {sim::VmcsField::kGuestPmlAddress, sim::VmcsField::kGuestPmlIndex,
            sim::VmcsField::kGuestPmlEnable}) {
        vcpu.shadow_readable().add(f);
        vcpu.shadow_writable().add(f);
      }
      vcpu.vmcs().set_control(sim::kEnableVmcsShadowing, true);
      vcpu.vmcs().set_control(sim::kEnableGuestPml, true);
      return 0;
    }
    case sim::Hypercall::kOohDeactivateEpml:
      ctx.charge_us(cost.hc_deact_pml_shadow_us);
      vcpu.vmcs().set_control(sim::kEnableGuestPml, false);
      vcpu.destroy_shadow_vmcs();
      return 0;
    case sim::Hypercall::kOohSppProtect: {
      // OoH-SPP (§III-D): the guest installs a 32-bit sub-page write mask
      // for one of its pages. The hypervisor owns the SPP table; the guest
      // only ever names GPAs it was given (no HPA exposure, as in §V).
      ctx.charge_us(cost.hc_spp_protect_us);
      const Gpa gpa_page = page_floor(a0);
      if (gpa_page >= vm.mem_bytes()) return u64(-1);
      sim::EptEntry* e = vm.ept().entry(gpa_page);
      if (e == nullptr || !e->present) {
        on_ept_violation(vcpu, gpa_page, /*is_write=*/false);
        e = vm.ept().entry(gpa_page);
      }
      vm.spp_table().set_mask(gpa_page, static_cast<u32>(a1));
      e->spp = static_cast<u32>(a1) != sim::kSppAllWritable;
      // Cached translations on any vCPU may still claim page-level write
      // permission.
      flush_all_tlbs(vm, ctx);
      return 0;
    }
    case sim::Hypercall::kOohSppClear: {
      ctx.charge_us(cost.hc_spp_protect_us);
      const Gpa gpa_page = page_floor(a0);
      vm.spp_table().clear(gpa_page);
      if (sim::EptEntry* e = vm.ept().entry(gpa_page); e != nullptr) e->spp = false;
      flush_all_tlbs(vm, ctx);
      return 0;
    }
    case sim::Hypercall::kOohIntervalReset: {
      // End of an SPML tracking interval: re-arm logging for every page the
      // guest consumed this interval (their next write must re-log).
      ctx.charge_us(cost.hc_enable_logging_us);
      drain_pml_buffer(vm, cpu);
      reset_dirty_for(vm, vm.spml_interval_log(cpu), ctx);
      vm.spml_interval_log(cpu).clear();
      return 0;
    }
  }
  throw std::logic_error("unknown hypercall");
}

void Hypervisor::eager_split_all(Vm& vm, sim::ExecContext& ctx) {
  if (vm.ept().huge_leaves() == 0) return;  // all-4 KiB VM: free no-op
  // Collect first: splitting mutates the radix structure mid-iteration.
  std::vector<std::pair<Gpa, PageGran>> huge;
  vm.ept().for_each_leaf_present([&](Gpa base, sim::EptEntry&, PageGran g) {
    if (g != PageGran::k4K) huge.emplace_back(base, g);
  });
  u64 splits = 0;
  for (const auto& [base, g] : huge) {
    if (vm.ept().split_huge_leaf(base, g) != 0) ++splits;
    if (g == PageGran::k1G) {
      // The 1 GiB leaf became 512 2 MiB leaves; shatter those to 4 KiB too.
      for (u64 i = 0; i < sim::kRadixFanout; ++i) {
        if (vm.ept().split_huge_leaf(base + i * gran_size(PageGran::k2M),
                                     PageGran::k2M) != 0) {
          ++splits;
        }
      }
    }
  }
  ctx.charge_us(ctx.cost.ept_split_leaf_us * static_cast<double>(splits));
  // The shootdown the splits owe rides the session-start INVEPT the caller
  // performs right after (clear_all_ept_dirty -> flush_all_tlbs).
}

void Hypervisor::enable_pml_for_hyp(Vm& vm) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) ensure_pml_buffer(vm, cpu);
  if (vm.eager_split()) {
    // KVM's eager page splitting: shatter every huge leaf to 4 KiB *before*
    // logging starts, so each PML entry names exactly one dirty page
    // instead of a 2 MiB superset.
    eager_split_all(vm, vm.ctx());
    vm.set_eager_split_active(true);
  }
  clear_all_ept_dirty(vm, vm.ctx());
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (!vm.pml_enabled_by_hyp(cpu)) {
      vm.track(cpu).register_notifier(sim::TrackLayer::kPmlDrain,
                                      &vm.hyp_drain_consumer());
    }
    update_pml_enable(vm, cpu);
  }
}

void Hypervisor::disable_pml_for_hyp(Vm& vm) {
  drain_all_pml_buffers(vm);
  // Huge pages are not rebuilt here: like KVM, recovery of split regions is
  // left to future faults (the next huge-eligible EPT violation).
  vm.set_eager_split_active(false);
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (vm.pml_enabled_by_hyp(cpu)) {
      vm.track(cpu).unregister_notifier(sim::TrackLayer::kPmlDrain,
                                        &vm.hyp_drain_consumer());
    }
    update_pml_enable(vm, cpu);
  }
}

std::vector<Gpa> Hypervisor::take_ring_contents(Vm& vm) {
  // First-seen-order dedup through the VM's page bitmap: ring 0's entries
  // in event order, then ring 1's, ..., then every vCPU's spill log
  // (ring-full or injected kDirtyRingFull). The order is deterministic, and
  // no virtual-time charge depends on it.
  std::vector<Gpa> out;
  PageBitmap::Unique unique(vm.harvest_bits(), out);
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    DirtyRing& ring = vm.dirty_ring(cpu);
    u64 gpa = 0;
    while (ring.try_pop(gpa)) unique.add(gpa);
  }
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    for (const u64 gpa : vm.dirty_ring(cpu).take_spill()) unique.add(gpa);
  }
  return out;
}

std::vector<Gpa> Hypervisor::harvest_hyp_dirty(Vm& vm) {
  drain_all_pml_buffers(vm);
  std::vector<Gpa> out = take_ring_contents(vm);
  // Round boundary: re-arm logging for the harvested pages.
  reset_dirty_for(vm, out, vm.ctx());
  return out;
}

std::vector<Gpa> Hypervisor::collect_dirty_paused(Vm& vm) {
  // Final harvest with the vCPUs paused: drain the in-flight buffers and
  // take the rings, but do NOT re-arm — the VM is not going to run here
  // again, and reset_dirty_for's unconditional INVEPT would charge a TLB
  // flush that the (empty-drain-window) common case never paid before.
  drain_all_pml_buffers(vm);
  return take_ring_contents(vm);
}

void Hypervisor::enable_wss_sampling(Vm& vm) {
  sim::ExecContext& ctx = vm.ctx();
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (vm.pml_enabled_by_guest(cpu)) {
      throw std::logic_error(
          "WSS sampling and a guest SPML session cannot share the PML buffer");
    }
  }
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) ensure_pml_buffer(vm, cpu);
  if (vm.eager_split()) {
    // WSS sampling wants page-granular touch sets for the same reason
    // migration wants page-granular dirty sets.
    eager_split_all(vm, ctx);
    vm.set_eager_split_active(true);
  }
  // Reset both accessed and dirty flags so every first touch re-logs.
  u64 cleared = 0;
  vm.ept().for_each_present([&](Gpa, sim::EptEntry& e) {
    if (e.accessed || e.dirty) ++cleared;
    e.accessed = false;
    e.dirty = false;
  });
  ctx.charge_ns(ctx.cost.dbit_clear_ns * static_cast<double>(cleared));
  flush_all_tlbs(vm, ctx);
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (!vm.pml_enabled_by_hyp(cpu)) {
      vm.track(cpu).register_notifier(sim::TrackLayer::kPmlDrain,
                                      &vm.hyp_drain_consumer());
    }
    vm.vcpu(cpu).vmcs().set_control(sim::kEnablePmlReadLog, true);
    update_pml_enable(vm, cpu);
  }
}

void Hypervisor::disable_wss_sampling(Vm& vm) {
  drain_all_pml_buffers(vm);
  vm.set_eager_split_active(false);
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    vm.dirty_ring(cpu).clear();
    vm.vcpu(cpu).vmcs().set_control(sim::kEnablePmlReadLog, false);
    if (vm.pml_enabled_by_hyp(cpu)) {
      vm.track(cpu).unregister_notifier(sim::TrackLayer::kPmlDrain,
                                        &vm.hyp_drain_consumer());
    }
    update_pml_enable(vm, cpu);
  }
}

std::vector<Gpa> Hypervisor::harvest_wss(Vm& vm) {
  sim::ExecContext& ctx = vm.ctx();
  drain_all_pml_buffers(vm);
  std::vector<Gpa> out = take_ring_contents(vm);
  // Re-arm: clear accessed (and dirty) flags of the sampled pages. The
  // sample is page-granular (the drain expands huge-leaf entries to every
  // 4 KiB page they cover), but the flags live on the *leaf*: a shared
  // 2 MiB leaf is one hardware flag word, so it must be visited, cleared
  // and charged once — not once per constituent 4 KiB page.
  u64 cleared = 0;
  std::vector<Gpa> visited;  // leaf bases, gran-aligned
  {
    PageBitmap::Unique leaves(vm.harvest_bits(), visited);
    for (const Gpa gpa : out) {
      const sim::Ept::Lookup leaf = vm.ept().lookup(gpa);
      if (leaf.entry == nullptr) continue;
      if (!leaves.add(gran_floor(gpa, leaf.gran))) continue;
      if (leaf.entry->accessed || leaf.entry->dirty) ++cleared;
      leaf.entry->accessed = false;
      leaf.entry->dirty = false;
    }
  }
  ctx.charge_ns(ctx.cost.dbit_clear_ns * static_cast<double>(cleared));
  flush_all_tlbs(vm, ctx);
  return out;
}

}  // namespace ooh::hv

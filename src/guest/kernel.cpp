#include "guest/kernel.hpp"

#include <bit>
#include <cassert>
#include <new>

#include "guest/ooh_module.hpp"
#include "guest/procfs.hpp"
#include "guest/swap.hpp"
#include "guest/uffd.hpp"
#include "hypervisor/hypervisor.hpp"

namespace ooh::guest {

GuestKernel::GuestKernel(hv::Hypervisor& hypervisor, hv::Vm& vm)
    : hypervisor_(hypervisor), vm_(vm), ctx_(vm.ctx()) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    mmus_.push_back(std::make_unique<sim::Mmu>(vm.vcpu(cpu), vm.ept(),
                                               &vm.spp_table()));
    scheds_.push_back(std::make_unique<Scheduler>(vm.vcpu(cpu).ctx()));
  }
  procfs_ = std::make_unique<ProcFs>(*this);
  uffd_ = std::make_unique<Uffd>(*this);
  swap_ = std::make_unique<SwapDaemon>(*this);
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    sim::Vcpu& vcpu = vm_.vcpu(cpu);
    // Install the kernel as the posted-interrupt sink (EPML self-IPI vector).
    vcpu.attach(vcpu.exits(), this, vcpu.ept());
    // Guest write-protect fault policy as a notifier chain: userfaultfd gets
    // first claim (it checks the PTE's uffd_wp marker), soft-dirty is the
    // fallback — the dispatch order Linux's own fault handler hard-codes.
    // Each vCPU has its own chain head; policy is identical on all of them.
    vm_.track(cpu).register_notifier(sim::TrackLayer::kGuestWpFault, uffd_.get());
    vm_.track(cpu).register_notifier(sim::TrackLayer::kGuestWpFault, procfs_.get());
  }
}

GuestKernel::~GuestKernel() {
  ooh_module_.reset();
  for (unsigned cpu = 0; cpu < vm_.vcpu_count(); ++cpu) {
    vm_.track(cpu).unregister_notifier(sim::TrackLayer::kGuestWpFault, procfs_.get());
    vm_.track(cpu).unregister_notifier(sim::TrackLayer::kGuestWpFault, uffd_.get());
  }
}

Process& GuestKernel::create_process() {
  ProcEntry e;
  e.proc = std::make_unique<Process>(*this, next_pid_);
  e.pt = std::make_unique<sim::GuestPageTable>();
  // Both sides of the entry are heap-owned, so the cached pointer stays
  // valid for the process's whole life (procs_ growth moves only the
  // unique_ptrs).
  e.proc->pt_ = e.pt.get();
  // Round-robin placement across vCPUs; with one vCPU every process lands
  // on the BSP, exactly the pre-SMP behaviour.
  const unsigned cpu = next_place_cpu_ % vcpu_count();
  next_place_cpu_ = (next_place_cpu_ + 1) % vcpu_count();
  e.proc->cpu_ = cpu;
  e.proc->cpu_mask_ = u64{1} << cpu;
  ++next_pid_;
  procs_.push_back(std::move(e));
  return *procs_.back().proc;
}

void GuestKernel::migrate_process(Process& proc, unsigned cpu) {
  if (cpu >= vcpu_count()) throw std::out_of_range("migrate to unknown vCPU");
  proc.cpu_ = cpu;
  // Stale translations may remain cached on the old vCPU; keeping its bit in
  // the mask is what makes later shootdowns reach them (Linux mm_cpumask is
  // likewise sticky between switches).
  proc.cpu_mask_ |= u64{1} << cpu;
}

void GuestKernel::tlb_invalidate_page(Process& proc, Gva gva_page) {
  const unsigned owner = proc.cpu();
  vm_.vcpu(owner).tlb().invalidate_page(proc.pid(), gva_page);
  u64 remotes = proc.cpu_mask() & ~(u64{1} << owner);
  sim::ExecContext& ctx = vm_.vcpu(owner).ctx();
  while (remotes != 0) {
    const unsigned cpu = static_cast<unsigned>(std::countr_zero(remotes));
    remotes &= remotes - 1;
    vm_.vcpu(cpu).tlb().invalidate_page(proc.pid(), gva_page);
    ctx.count(Event::kTlbShootdownIpi);
    ctx.charge_us(ctx.cost.tlb_shootdown_us);
  }
}

void GuestKernel::tlb_flush_pid(Process& proc) {
  const unsigned owner = proc.cpu();
  vm_.vcpu(owner).tlb().flush_pid(proc.pid());
  u64 remotes = proc.cpu_mask() & ~(u64{1} << owner);
  sim::ExecContext& ctx = vm_.vcpu(owner).ctx();
  while (remotes != 0) {
    const unsigned cpu = static_cast<unsigned>(std::countr_zero(remotes));
    remotes &= remotes - 1;
    vm_.vcpu(cpu).tlb().flush_pid(proc.pid());
    ctx.count(Event::kTlbShootdownIpi);
    ctx.charge_us(ctx.cost.tlb_shootdown_us);
  }
}

Process* GuestKernel::find(u32 pid) noexcept {
  for (auto& e : procs_) {
    if (e.proc->pid() == pid) return e.proc.get();
  }
  return nullptr;
}

void GuestKernel::throw_not_owner() {
  throw std::logic_error("process does not belong to this kernel");
}

OohModule& GuestKernel::load_ooh_module(OohMode mode) {
  if (ooh_module_) throw std::logic_error("OoH module already loaded");
  ooh_module_ = std::make_unique<OohModule>(*this, mode);
  return *ooh_module_;
}

void GuestKernel::unload_ooh_module() {
  ooh_module_.reset();
}

Gpa GuestKernel::alloc_gpa_frame(sim::ExecContext& ctx) {
  if (ctx.fault_fire(sim::fault::FaultPoint::kGpaAllocFail)) {
    // Injected guest OOM: callers (EPML buffer setup, mmap growth) see the
    // same failure a loaded guest would produce and must degrade, not die.
    throw std::bad_alloc{};
  }
  if (!gpa_free_list_.empty()) {
    const Gpa gpa = gpa_free_list_.back();
    gpa_free_list_.pop_back();
    return gpa;
  }
  if (next_gpa_frame_ + kPageSize > vm_.mem_bytes()) {
    throw std::runtime_error("guest out of physical memory");
  }
  const Gpa gpa = next_gpa_frame_;
  next_gpa_frame_ += kPageSize;
  return gpa;
}

void GuestKernel::free_gpa_frame(Gpa gpa) {
  gpa_free_list_.push_back(page_floor(gpa));
}

void GuestKernel::ensure_ept_mapped(Gpa gpa, unsigned cpu) {
  sim::EptEntry* e = vm_.ept().entry(gpa);
  if (e != nullptr && e->present) return;
  sim::Vcpu& vcpu = vm_.vcpu(cpu);
  vcpu.ctx().charge_us(vcpu.ctx().cost.ept_violation_us);
  vcpu.vmexit_to_root(Event::kVmExitEptViolation, [&] {
    vcpu.exits()->on_ept_violation(vcpu, gpa, /*is_write=*/true);
  });
}

void GuestKernel::on_guest_pml_full(sim::Vcpu& vcpu) {
  if (!ooh_module_) throw std::logic_error("EPML self-IPI with no OoH module loaded");
  ooh_module_->handle_guest_pml_full(vcpu.cpu_index());
}

Hpa GuestKernel::access_slow(Process& proc, Gva gva, bool is_write, VirtDuration after) {
  sim::GuestPageTable& pt = page_table(proc);
  sim::Mmu& mmu = mmu_of(proc);
  Scheduler& sched = scheduler_of(proc);
  // A single access needs at most: missing fault, then (after the page is
  // mapped write-protected by a registered ufd) a write-protect fault, then
  // success. The bound just guards against policy bugs. The caller already
  // found that the TLB cannot serve the first try, so it starts at the walk;
  // a retry after a fault asks the TLB again.
  for (int tries = 0; tries < 4; ++tries) {
    const sim::Mmu::Result r = tries == 0 ? mmu.access_miss(proc.pid(), pt, gva, is_write)
                                          : mmu.access(proc.pid(), pt, gva, is_write);
    switch (r.status) {
      case sim::Mmu::Status::kOk:
        if (is_write) proc.truth_record(page_floor(gva));
        sched.on_progress(proc.pid());
        ctx_of(proc).charge(after);
        return r.hpa;
      case sim::Mmu::Status::kFaultNotPresent:
        handle_not_present(proc, gva, is_write);
        break;
      case sim::Mmu::Status::kFaultNotWritable:
        handle_not_writable(proc, gva);
        break;
      case sim::Mmu::Status::kFaultSubPage:
        handle_subpage_fault(proc, gva);
        break;
    }
  }
  throw std::logic_error("fault retry loop did not converge");
}

void GuestKernel::touch_run(Process& proc, Gva base, u64 stride, u64 n,
                            bool is_write) {
  check_owner(proc);
  const u32 pid = proc.pid();
  sim::Mmu& mmu = mmu_of(proc);
  Scheduler& sched = scheduler_of(proc);
  sim::ExecContext& ctx = ctx_of(proc);
  const VirtDuration work = nsecs(ctx.cost.workload_write_ns);
  u64 i = 0;
  while (i < n) {
    // One page segment from the TLB. Its hits, truth and clock are all up to
    // date before the scheduler runs, as they were per access.
    const Gva gva = base + i * stride;
    const VirtualClock::PairRun run =
        mmu.access_run(pid, gva, stride, n - i, is_write, work, sched.next_deadline());
    if (run.done > 0) {
      i += run.done;
      if (is_write) proc.truth_record(page_floor(gva), run.done);
      if (run.reached) {
        sched.on_progress(pid);
        ctx.charge_ns(ctx.cost.workload_write_ns);
      }
      continue;
    }
    // The next access needs the full pipeline (TLB miss, fault, or a
    // dirty-flag transition): the TLB just said so, so it goes straight to
    // access()'s retry loop, then the run resumes.
    (void)access_slow(proc, gva, is_write, work);
    ++i;
  }
}

Gpa GuestKernel::translate_gva(Process& proc, Gva gva_page) {
  // Fault the page in if needed, then read the translation from the walk
  // seam (per-4 KiB GPA even when a huge leaf covers the page).
  (void)access(proc, gva_page, /*is_write=*/false, VirtDuration{0});
  const sim::GuestPageTable::Lookup lu = page_table(proc).lookup(gva_page);
  assert(lu.pte != nullptr && lu.pte->present);
  return lu.gpa_page;
}

void GuestKernel::spp_protect(Process& proc, Gva gva_page, u32 write_mask) {
  const Gpa gpa = translate_gva(proc, page_floor(gva_page));
  if (vcpu_of(proc).hypercall(sim::Hypercall::kOohSppProtect, gpa, write_mask) != 0) {
    throw std::runtime_error("SPP protect hypercall rejected");
  }
}

void GuestKernel::spp_clear(Process& proc, Gva gva_page) {
  const Gpa gpa = translate_gva(proc, page_floor(gva_page));
  (void)vcpu_of(proc).hypercall(sim::Hypercall::kOohSppClear, gpa);
}

u32 GuestKernel::spp_mask_of(Process& proc, Gva gva_page) {
  const sim::GuestPageTable::Lookup lu =
      page_table(proc).lookup(page_floor(gva_page));
  if (lu.pte == nullptr || !lu.pte->present) return sim::kSppAllWritable;
  return vm_.spp_table().mask(lu.gpa_page);
}

void GuestKernel::set_spp_handler(Process& proc, SppHandler handler) {
  if (handler) {
    spp_handlers_[proc.pid()] = std::move(handler);
  } else {
    spp_handlers_.erase(proc.pid());
  }
}

void GuestKernel::handle_subpage_fault(Process& proc, Gva gva) {
  ++spp_violations_;
  const auto it = spp_handlers_.find(proc.pid());
  // No handler: the guard hit is fatal, like a write to a guard page.
  if (it == spp_handlers_.end()) throw GuestSegfault(gva);
  switch (it->second(gva)) {
    case SppAction::kKill:
      throw GuestSegfault(gva);
    case SppAction::kUnprotect: {
      // Open the faulted sub-page so the access can proceed.
      const Gva page = page_floor(gva);
      const u32 mask = spp_mask_of(proc, page) | (1u << sim::subpage_index(gva));
      spp_protect(proc, page, mask);
      break;
    }
  }
}

void GuestKernel::handle_not_present(Process& proc, Gva gva, bool /*is_write*/) {
  Vma* vma = proc.vma_of(gva);
  if (vma == nullptr) throw GuestSegfault(gva);
  const Gva page = page_floor(gva);

  // Swapped-out page? Major fault: the daemon restores it.
  if (swap_->swap_in_if_needed(proc, page)) return;

  if (vma->uffd == Vma::Uffd::kMissing && uffd_->missing_registered(proc)) {
    uffd_->deliver_missing_fault(proc, page);
  }

  // Demand paging: minor fault, two world switches, map a fresh frame. All
  // charges land on the faulting process's vCPU.
  sim::ExecContext& ctx = ctx_of(proc);
  ctx.count(Event::kPageFaultDemand);
  ctx.count(Event::kContextSwitch, 2);
  ctx.charge_us(ctx.cost.demand_fault_us + 2 * ctx.cost.ctx_switch_us);

  sim::GuestPageTable& pt = page_table(proc);
  pt.map(page, alloc_gpa_frame(ctx), vma->writable);
  sim::Pte* pte = pt.pte(page);
  assert(pte != nullptr);
  if (vma->data_backed) {
    // Anonymous pages are zeroed: a recycled frame (e.g. from a swap
    // eviction) must not leak its previous contents.
    ensure_ept_mapped(pte->gpa_page, proc.cpu());
    Hpa hpa = 0;
    if (vm_.ept().translate(pte->gpa_page, hpa)) {
      // It ends materialised: CRIU's dump tells data pages from
      // never-written ones by that.
      ctx.pmem.zero(hpa);
    }
  }
  // Linux marks freshly mapped pages soft-dirty so /proc does not miss them.
  pte->soft_dirty = true;
  if (vma->uffd == Vma::Uffd::kWriteProtect && uffd_->wp_registered(proc)) {
    pte->uffd_wp = true;  // the retried write will raise the ufd-wp fault
  }
}

void GuestKernel::handle_not_writable(Process& proc, Gva gva) {
  const Gva page = page_floor(gva);
  sim::GuestPageTable& pt = page_table(proc);
  const sim::GuestPageTable::Lookup lu = pt.lookup(page);
  assert(lu.pte != nullptr && lu.pte->present);
  Vma* vma = proc.vma_of(gva);
  if (vma == nullptr || !vma->writable) throw GuestSegfault(gva);

  // Fault policy lives in the kGuestWpFault chain: userfaultfd claims
  // uffd_wp-marked PTEs, the soft-dirty handler takes the rest. The fault
  // is raised — and handled — on the process's own vCPU.
  if (!vm_.track(proc.cpu()).dispatch(
          sim::TrackLayer::kGuestWpFault,
          {&vcpu_of(proc), proc.pid(), page, lu.gpa_page})) {
    throw std::logic_error("guest write-protect fault with no handler");
  }
}

}  // namespace ooh::guest

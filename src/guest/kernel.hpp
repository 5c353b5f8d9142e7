// The guest operating system kernel (Linux-like).
//
// Owns processes, the per-process page tables' fault policy (demand paging,
// soft-dirty, userfaultfd dispatch), the guest-physical frame allocator, the
// per-vCPU schedulers, and the interrupt table entry for EPML's posted
// self-IPI (the paper's "Linux Core" change, §IV-E).
//
// SMP: the kernel owns one Mmu and one Scheduler per vCPU and places
// processes round-robin across vCPUs at creation (migrate_process moves
// them later). Every access routes through the owning vCPU's MMU, charges
// that vCPU's timeline, and ticks that vCPU's scheduler — with one vCPU this
// degenerates to exactly the old single-timeline pipeline. Page-table
// updates that *reduce* permissions or tear down mappings go through the
// mm_cpumask shootdown helpers (tlb_invalidate_page / tlb_flush_pid): the
// owning vCPU invalidates locally and every other vCPU the process ever ran
// on gets an IPI-modelled remote invalidation (Event::kTlbShootdownIpi,
// CostModel::tlb_shootdown_us per remote). A process that never migrated
// has a singleton mask, so N=1 pays no shootdown — bit-identical to the
// single-vCPU tree. SHOOT-1 (docs/invariants.md) pins the mask discipline.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "base/types.hpp"
#include "guest/process.hpp"
#include "guest/scheduler.hpp"
#include "hypervisor/vm.hpp"
#include "sim/exec_context.hpp"
#include "sim/mmu.hpp"
#include "sim/page_table.hpp"

namespace ooh::hv {
class Hypervisor;
}

namespace ooh::guest {

class OohModule;
class Uffd;
class ProcFs;
class SwapDaemon;
enum class OohMode { kSpml, kEpml };

/// Raised when a guest access has no VMA or violates permissions for good.
struct GuestSegfault : std::runtime_error {
  explicit GuestSegfault(Gva gva)
      : std::runtime_error("guest segfault"), addr(gva) {}
  Gva addr;
};

class GuestKernel final : public sim::GuestIrqSink {
 public:
  GuestKernel(hv::Hypervisor& hypervisor, hv::Vm& vm);
  ~GuestKernel() override;

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  Process& create_process();
  [[nodiscard]] Process* find(u32 pid) noexcept;

  /// Visit every live process as fn(Process&, sim::GuestPageTable&); the
  /// coherence oracle re-derives TLB entries and GPA ownership through this.
  template <typename Fn>
  void for_each_process(Fn&& fn) {
    for (auto& e : procs_) fn(*e.proc, *e.pt);
  }

  /// The BSP's execution context (vCPU 0's clock, counters, TLB). With one
  /// vCPU this is "the VM's timeline"; SMP code routes via ctx_of().
  [[nodiscard]] sim::ExecContext& ctx() noexcept { return ctx_; }
  [[nodiscard]] hv::Vm& vm() noexcept { return vm_; }
  [[nodiscard]] hv::Hypervisor& hypervisor() noexcept { return hypervisor_; }
  [[nodiscard]] ProcFs& procfs() noexcept { return *procfs_; }
  [[nodiscard]] Uffd& uffd() noexcept { return *uffd_; }

  // ---- SMP topology and routing ---------------------------------------------
  [[nodiscard]] unsigned vcpu_count() const noexcept {
    return static_cast<unsigned>(scheds_.size());
  }
  [[nodiscard]] Scheduler& scheduler(unsigned cpu) noexcept { return *scheds_[cpu]; }
  /// vCPU-0 shorthand kept for single-vCPU call sites and tests.
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheds_[0]; }
  [[nodiscard]] sim::Mmu& mmu(unsigned cpu) noexcept { return *mmus_[cpu]; }
  [[nodiscard]] sim::Mmu& mmu() noexcept { return *mmus_[0]; }

  [[nodiscard]] sim::Vcpu& vcpu_of(const Process& proc) noexcept {
    return vm_.vcpu(proc.cpu());
  }
  [[nodiscard]] sim::ExecContext& ctx_of(const Process& proc) noexcept {
    return vm_.vcpu(proc.cpu()).ctx();
  }
  [[nodiscard]] Scheduler& scheduler_of(const Process& proc) noexcept {
    return *scheds_[proc.cpu()];
  }
  [[nodiscard]] sim::Mmu& mmu_of(const Process& proc) noexcept {
    return *mmus_[proc.cpu()];
  }

  /// Move `proc` to vCPU `cpu`. Like Linux task migration this does NOT
  /// flush anything: the old vCPU stays in the process's mm_cpumask, so
  /// later permission-reducing PT updates shoot it down too.
  void migrate_process(Process& proc, unsigned cpu);

  /// Convenience for every scheduler at once (tenant setup).
  void set_quantum_all(VirtDuration q) noexcept {
    for (auto& s : scheds_) s->set_quantum(q);
  }

  // ---- mm_cpumask TLB shootdown protocol ------------------------------------
  // Invalidate cached translations of `proc` on every vCPU in its cpumask:
  // the owning vCPU locally (exactly the old single-vCPU operation, no
  // extra charge), every *other* masked vCPU via a modelled IPI shootdown
  // (count kTlbShootdownIpi + charge tlb_shootdown_us on the owning vCPU's
  // timeline, per remote). Callers keep charging their own kTlbFlush /
  // flush costs exactly as before, so N=1 virtual time is unchanged.
  void tlb_invalidate_page(Process& proc, Gva gva_page);
  void tlb_flush_pid(Process& proc);

  /// Load/unload the OoH kernel module (UIO driver's kernel half).
  OohModule& load_ooh_module(OohMode mode);
  void unload_ooh_module();
  [[nodiscard]] OohModule* ooh_module() noexcept { return ooh_module_.get(); }

  /// Core access path: translate (fault + retry as needed), record truth,
  /// give the owning vCPU's scheduler a chance to tick, then charge the
  /// caller's own per-access work `after` (its workload compute; zero for a
  /// kernel touch). Returns the HPA.
  ///
  /// A TLB hit is served here, inline, through Mmu::hit: +tlb_hit, truth
  /// for a write, then +after, with the scheduler run in between only when
  /// the tlb_hit charge brought the clock to its next deadline (exactly
  /// Scheduler::on_progress's own test). Anything else (a miss, a write
  /// through a clean entry, a fault) takes the out-of-line retry loop.
  /// Both paths refuse a process of another kernel before they touch
  /// anything.
  Hpa access(Process& proc, Gva gva, bool is_write, VirtDuration after) {
    check_owner(proc);
    const unsigned cpu = proc.cpu();
    Scheduler& sched = *scheds_[cpu];
    const sim::Mmu::Hits h =
        mmus_[cpu]->hit(proc.pid(), gva, is_write, 1, after, sched.next_deadline());
    if (h.run.done == 0) return access_slow(proc, gva, is_write, after);
    if (is_write) proc.truth_record(page_floor(gva));
    if (h.run.reached) {
      sched.on_progress(proc.pid());
      ctx_of(proc).charge(after);
    }
    return h.hpa;
  }

  /// Batched equivalent of n accesses at base, base+stride, ...: accesses a
  /// cached translation can serve run through Mmu::access_run one page
  /// segment at a time (one truth record per segment, the scheduler called
  /// only when its deadline is reached); any access it cannot serve falls
  /// back to the full access() pipeline, then the run resumes. Virtual time,
  /// counters and truth are bit-identical to the per-access loop.
  void touch_run(Process& proc, Gva base, u64 stride, u64 n, bool is_write);

  /// Per-process page table (kernel-owned, like mm_struct). O(1): reads the
  /// pointer cached on the process at create_process() time.
  [[nodiscard]] sim::GuestPageTable& page_table(Process& proc) {
    check_owner(proc);
    return *proc.pt_;
  }

  // ---- guest-physical memory -----------------------------------------------
  /// Allocate a guest frame, charging faults to `ctx` (the acting vCPU's
  /// timeline).
  [[nodiscard]] Gpa alloc_gpa_frame(sim::ExecContext& ctx);
  [[nodiscard]] Gpa alloc_gpa_frame() { return alloc_gpa_frame(ctx_); }
  void free_gpa_frame(Gpa gpa);
  /// Force an EPT mapping to exist for `gpa` (models a kernel touch on
  /// vCPU `cpu`).
  void ensure_ept_mapped(Gpa gpa, unsigned cpu = 0);

  /// The swap daemon (kernel's own dirty-tracking consumer, paper §I).
  [[nodiscard]] SwapDaemon& swap() noexcept { return *swap_; }

  // ---- OoH-SPP: sub-page write protection (paper §III-D) --------------------
  /// What the guest asks the handler to do after a guard hit.
  enum class SppAction { kUnprotect, kKill };
  using SppHandler = std::function<SppAction(Gva fault_addr)>;

  /// Install a 32-bit write-allow mask (bit i = sub-page i of 128B) for one
  /// page of `proc` (demand-mapping it if needed). Goes through the
  /// kOohSppProtect hypercall; the guest only ever names GPAs.
  void spp_protect(Process& proc, Gva gva_page, u32 write_mask);
  void spp_clear(Process& proc, Gva gva_page);
  [[nodiscard]] u32 spp_mask_of(Process& proc, Gva gva_page);
  void set_spp_handler(Process& proc, SppHandler handler);

  [[nodiscard]] u64 spp_violations() const noexcept { return spp_violations_; }

  // ---- sim::GuestIrqSink -----------------------------------------------------
  void on_guest_pml_full(sim::Vcpu& vcpu) override;

 private:
  friend class ProcFs;
  friend class Uffd;

  /// Throws std::logic_error unless `proc` was created by this kernel.
  void check_owner(const Process& proc) const {
    if (&proc.kernel_ != this || proc.pt_ == nullptr) [[unlikely]] throw_not_owner();
  }
  [[noreturn]] static void throw_not_owner();
  /// access() once the TLB could not serve it: the fault/retry loop, then
  /// the caller's `after`.
  Hpa access_slow(Process& proc, Gva gva, bool is_write, VirtDuration after);
  void handle_not_present(Process& proc, Gva gva, bool is_write);
  void handle_not_writable(Process& proc, Gva gva);
  void handle_subpage_fault(Process& proc, Gva gva);
  [[nodiscard]] Gpa translate_gva(Process& proc, Gva gva);

  hv::Hypervisor& hypervisor_;
  hv::Vm& vm_;
  sim::ExecContext& ctx_;
  std::vector<std::unique_ptr<sim::Mmu>> mmus_;     ///< one per vCPU.
  std::vector<std::unique_ptr<Scheduler>> scheds_;  ///< one per vCPU.
  std::unique_ptr<ProcFs> procfs_;
  std::unique_ptr<Uffd> uffd_;
  std::unique_ptr<SwapDaemon> swap_;
  std::unique_ptr<OohModule> ooh_module_;
  struct ProcEntry {
    std::unique_ptr<Process> proc;
    std::unique_ptr<sim::GuestPageTable> pt;
  };
  std::vector<ProcEntry> procs_;
  std::unordered_map<u32, SppHandler> spp_handlers_;
  u64 spp_violations_ = 0;
  u32 next_pid_ = 1;
  unsigned next_place_cpu_ = 0;  ///< round-robin placement cursor.
  Gpa next_gpa_frame_ = kPageSize;  // guest frame 0 reserved, like HPA 0
  std::vector<Gpa> gpa_free_list_;
};

}  // namespace ooh::guest

// The OoH kernel module -- the kernel half of the paper's UIO-style driver
// (§IV-B). It multiplexes the exposed hardware feature across processes:
//
//   SPML: hooks schedule-in/out of tracked processes to issue the
//         enable_logging/disable_logging hypercalls, and moves GPAs from
//         the hypervisor-shared ring into per-process rings (§V isolation).
//   EPML: performs the single setup hypercall (VMCS shadowing + guest PML),
//         toggles logging with guest-mode vmwrites at each switch, and
//         drains the guest-level buffer of GVAs on the posted self-IPI.
//
// SMP: PML sessions are per-vCPU hardware state, so the module keeps a
// per-vCPU session record (active pid, EPML shadow-VMCS init, drain
// reentrancy flags) and registers its scheduler hook on every vCPU's
// scheduler. A tracked process's hypercalls, vmwrites, drains and charges
// all land on the vCPU it is placed on. track() arms PML on that vCPU; a
// process migrated to another vCPU is armed there when it is first
// scheduled in, and untrack() tears down every vCPU it armed.
// track/untrack are quiescent-point operations.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/ring_buffer.hpp"
#include "base/types.hpp"
#include "guest/kernel.hpp"
#include "guest/scheduler.hpp"

namespace ooh::guest {

class OohModule final : public SchedHook {
 public:
  OohModule(GuestKernel& kernel, OohMode mode);
  ~OohModule() override;

  [[nodiscard]] OohMode mode() const noexcept { return mode_; }

  /// ioctl: register `proc` for dirty tracking (Table V metric M3 + the
  /// design's init hypercall M9/M10).
  void track(Process& proc);
  /// ioctl: stop tracking (M4 + M11/M12).
  void untrack(Process& proc);
  [[nodiscard]] bool tracking(const Process& proc) const;

  /// ioctl: drain the per-process ring into userspace. Entries are GPAs
  /// under SPML (the library reverse-maps them) and GVAs under EPML.
  [[nodiscard]] std::vector<u64> fetch(Process& proc);

  /// Entries lost to ring overflow since tracking began (consumer lagging).
  [[nodiscard]] u64 dropped(const Process& proc) const;

  /// Capacity of per-process rings created by future track() calls; the
  /// ring-pressure ablation shrinks this to study overflow behaviour.
  void set_ring_entries(std::size_t entries) noexcept { ring_entries_ = entries; }

  // ---- SchedHook -------------------------------------------------------------
  void on_schedule_in(u32 pid) override;
  void on_schedule_out(u32 pid) override;

  /// Self-IPI handler: vCPU `cpu`'s EPML guest-level buffer is full (called
  /// from the kernel's interrupt table). Reentrant delivery while that
  /// vCPU's drain is running defers the IPI; the in-progress drain
  /// redelivers it on completion.
  void handle_guest_pml_full(unsigned cpu);

  /// Test seam: run `hook` exactly once inside the next EPML drain, after
  /// the slots are copied but before the index reset — the window where a
  /// nested buffer-full IPI can arrive.
  void set_mid_drain_hook(std::function<void()> hook) {
    mid_drain_hook_ = std::move(hook);
  }

 private:
  struct Tracked {
    Process* proc = nullptr;
    std::unique_ptr<RingBuffer> ring;
    Gpa guest_buf_gpa = 0;  ///< EPML: guest-level PML buffer page.
    u64 armed_cpus = 0;     ///< vCPUs this session armed PML on, one bit each.
  };
  /// Per-vCPU session state: one PML instance per vCPU.
  struct CpuSession {
    u32 active_pid = 0;    ///< tracked process scheduled in here (0 = none).
    bool epml_init = false;  ///< shadow VMCS armed on this vCPU.
    bool draining = false;   ///< EPML drain reentrancy guard.
    bool ipi_deferred = false;  ///< self-IPI arrived mid-drain; redeliver after.
  };

  /// Arm `t`'s session on vCPU `cpu` unless it already is: SPML's init
  /// hypercall, or EPML's shadow-VMCS init plus the guest buffer's EPT
  /// mapping. track() arms the process's vCPU, on_schedule_in any vCPU it
  /// migrated to.
  void arm(Tracked& t, unsigned cpu);
  void epml_drain_guest_buffer(Tracked& t, unsigned cpu);
  [[nodiscard]] Tracked* active_tracked(unsigned cpu) noexcept;

  GuestKernel& kernel_;
  OohMode mode_;
  std::unordered_map<u32, Tracked> tracked_;
  std::vector<CpuSession> cpus_;
  std::function<void()> mid_drain_hook_;
  std::size_t ring_entries_ = std::size_t{1} << 20;
};

}  // namespace ooh::guest

// The MMU write path: TLB -> guest page-table walk -> EPT walk.
//
// Every dirty-producing transition the walk observes is dispatched through
// the vCPU's page-track notifier chain (sim/page_track.hpp) at the layer
// where it originates:
//   * a guest-PTE dirty-flag transition -> kGuestPtDirty (the EPML circuit
//     logs the GVA if armed);
//   * an EPT accessed-flag transition  -> kEptAccessed (read-logging);
//   * an EPT dirty-flag transition     -> kEptDirty (the Intel PML circuit
//     logs the GPA if armed);
//   * a write to a write-protected EPT entry -> kEptWpFault (KVM
//     page_track-style write interception; must be handled).
//
// Guest-level faults are *returned*, not handled: the guest kernel owns
// fault policy (demand paging, soft-dirty, userfaultfd) and retries.
#pragma once

#include <cassert>

#include "base/types.hpp"
#include "sim/ept.hpp"
#include "sim/exec_context.hpp"
#include "sim/page_table.hpp"
#include "sim/spp.hpp"

namespace ooh::sim {

class Vcpu;

class Mmu {
 public:
  /// All time and events the walk circuit charges go to `vcpu`'s own
  /// execution context. `spp` is the sub-page permission table the hardware
  /// consults for EPT entries with the spp flag (nullptr = SPP absent from
  /// this machine).
  Mmu(Vcpu& vcpu, Ept& ept, SppTable* spp = nullptr);

  enum class Status {
    kOk,
    kFaultNotPresent,   ///< PTE absent: demand paging or ufd `miss` territory.
    kFaultNotWritable,  ///< write to a present RO/uffd-wp PTE: tracking territory.
    kFaultSubPage,      ///< write blocked by an SPP sub-page mask (guard hit).
  };

  struct Result {
    Status status = Status::kOk;
    Hpa hpa = 0;  ///< translated host physical address (valid when kOk).
  };

  /// Perform one access at `gva` for guest process `pid` through `pt`:
  /// hit(), else access_miss().
  [[nodiscard]] Result access(u32 pid, GuestPageTable& pt, Gva gva, bool is_write);

  /// What hit() served: `run.done` accesses (0 when the TLB could not serve
  /// the first), and the HPA of the first.
  struct Hits {
    VirtualClock::PairRun run;
    Hpa hpa = 0;
  };

  /// The TLB-hit branch, the one copy of it. A cached translation serves
  /// reads always, and writes once its dirty state is established: no flag
  /// transition, so nothing to walk and nothing to log. Otherwise (a miss,
  /// or a write through a clean or read-only entry) hit() serves nothing
  /// and changes nothing but the TLB's memos; the caller owes the walk.
  ///
  /// A served access is +tlb_hit, counted as kTlbHit, followed by the
  /// caller's own per-access charge `after`. hit() serves up to `n` such
  /// accesses from the one cached translation (the caller keeps them on
  /// gva's page), batched on the host: one lookup, one count. The clock and
  /// every open attribution bucket end exactly where +tlb_hit, +after,
  /// +tlb_hit, ... added one at a time would leave them; a summed
  /// `k * tlb_hit` would not (double addition does not reassociate) and
  /// would move every figure. VirtualClock::advance_pairs gets there without
  /// the per-access additions on runs of 16 or more: inside one binade each
  /// addend moves every value by the same whole number of ulps, so a run is
  /// integer steps on that ulp grid, with a real addition only at a binade
  /// crossing or a rounding tie. Shorter runs keep the addition loop, whose
  /// clock stays in a register between the two charges.
  ///
  /// The run stops right after the tlb_hit charge that brings the clock to
  /// `deadline` (run.reached; that access's `after` is not charged yet), so
  /// the caller can record what was served, run its scheduler, charge
  /// `after` and carry on. The service may change the TLB, so the caller
  /// asks again rather than reuse the entry.
  [[nodiscard]] Hits hit(u32 pid, Gva gva, bool is_write, u64 n, VirtDuration after,
                         VirtDuration deadline) noexcept {
    const TlbEntry* te = tlb_.lookup(pid, page_floor(gva));
    if (te == nullptr || (is_write && !(te->writable && te->dirty))) return {};
    Hits h;
    h.run = ctx_.clock.advance_pairs(nsecs(ctx_.cost.tlb_hit_ns), after, n, deadline);
    ctx_.count(Event::kTlbHit, h.run.done);
    // For a huge entry the cached bases are region bases; the in-region
    // offset reduces to page_offset(gva) in the k4K case.
    h.hpa = te->hpa_page + gran_offset(gva, te->gran);
    return h;
  }

  /// access() for an access the TLB cannot serve (hit() served nothing):
  /// counts the miss, walks both stages, logs flag transitions and fills.
  [[nodiscard]] Result access_miss(u32 pid, GuestPageTable& pt, Gva gva, bool is_write);

  /// Batched TLB-hit path: serve, as one segment, the stride-spaced
  /// accesses at gva, gva+stride, ... (at most `n`) that fall on gva's 4 KiB
  /// page, each followed by `after`, and report how many were `done` and
  /// whether the last one `reached` the deadline (see hit()).
  [[nodiscard]] VirtualClock::PairRun access_run(u32 pid, Gva gva, u64 stride, u64 n,
                                                 bool is_write, VirtDuration after,
                                                 VirtDuration deadline) noexcept {
    assert(stride != 0);
    const u64 on_page = 1 + (page_floor(gva) + kPageSize - 1 - gva) / stride;
    return hit(pid, gva, is_write, n < on_page ? n : on_page, after, deadline).run;
  }

  [[nodiscard]] Ept& ept() noexcept { return ept_; }

 private:
  ExecContext& ctx_;
  Vcpu& vcpu_;
  Tlb& tlb_;
  Ept& ept_;
  SppTable* spp_;
};

}  // namespace ooh::sim

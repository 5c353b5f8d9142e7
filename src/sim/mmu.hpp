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

  /// Perform one access at `gva` for guest process `pid` through `pt`.
  [[nodiscard]] Result access(u32 pid, GuestPageTable& pt, Gva gva, bool is_write);

  /// Batched TLB-hit path: serve, as one segment, the stride-spaced
  /// accesses at gva, gva+stride, ... (at most `n`) that fall on gva's 4 KiB
  /// page, from its cached translation, and report how many were `done`.
  /// Each access is the TLB-hit branch of access() followed by the caller's
  /// own per-access charge `after`.
  ///
  /// The segment is batched on the host: one TLB lookup and one kTlbHit
  /// count of `done`. The clock and every open attribution bucket end
  /// exactly where +tlb_hit, +after, +tlb_hit, ... added one at a time would
  /// leave them; a summed `k * tlb_hit` would not (double addition does not
  /// reassociate) and would move every figure. VirtualClock::advance_pairs
  /// gets there without the per-access additions on segments of 16 accesses
  /// or more: inside one binade each addend moves every value by the same
  /// whole number of ulps, so a segment is integer steps on that ulp grid,
  /// with a real addition only at a binade crossing or a rounding tie.
  /// Shorter segments keep the addition loop. A TLB hit walks nothing and so
  /// logs nothing; the bookkeeping is all it does.
  ///
  /// The run stops right after the tlb_hit charge that brings the clock to
  /// `deadline` (that access's `after` is not charged yet), so the caller
  /// can record the segment, run its scheduler, charge `after` and call
  /// again. The service may change the TLB; the next call looks the page up
  /// afresh. A run serves nothing (done == 0) when the cached translation
  /// cannot serve the first access: a TLB miss, or a write through a clean
  /// or read-only entry. Both need access() and its fault/logging side
  /// effects.
  [[nodiscard]] VirtualClock::PairRun access_run(u32 pid, Gva gva, u64 stride, u64 n,
                                                 bool is_write, VirtDuration after,
                                                 VirtDuration deadline) {
    assert(stride != 0);
    const Gva page = page_floor(gva);
    const TlbEntry* te = tlb_.lookup(pid, page);
    if (te == nullptr || (is_write && !(te->writable && te->dirty))) return {};
    const u64 on_page = 1 + (page + kPageSize - 1 - gva) / stride;
    const VirtualClock::PairRun run = ctx_.clock.advance_pairs(
        nsecs(ctx_.cost.tlb_hit_ns), after, n < on_page ? n : on_page, deadline);
    ctx_.count(Event::kTlbHit, run.done);
    return run;
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

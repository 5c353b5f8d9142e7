#include "sim/mmu.hpp"

#include <limits>
#include <stdexcept>

#include "sim/exec_context.hpp"
#include "sim/page_track.hpp"
#include "sim/vcpu.hpp"

namespace ooh::sim {

Mmu::Mmu(Vcpu& vcpu, Ept& ept, SppTable* spp)
    : ctx_(vcpu.ctx()), vcpu_(vcpu), tlb_(vcpu.tlb()), ept_(ept), spp_(spp) {}

Mmu::Result Mmu::access(u32 pid, GuestPageTable& pt, Gva gva, bool is_write) {
  // No per-access charge follows the hit: +0.0 leaves the clock's bits as
  // they are.
  constexpr VirtDuration kNoDeadline{std::numeric_limits<double>::infinity()};
  if (const Hits h = hit(pid, gva, is_write, 1, VirtDuration{0}, kNoDeadline); h.run.done != 0) {
    return {Status::kOk, h.hpa};
  }
  return access_miss(pid, pt, gva, is_write);
}

Mmu::Result Mmu::access_miss(u32 pid, GuestPageTable& pt, Gva gva, bool is_write) {
  const Gva gva_page = page_floor(gva);
  Tlb& tlb = tlb_;
  WriteTrackRegistry& track = vcpu_.track_registry();

  // Only a write can miss with an entry cached (a clean or read-only one):
  // hardware re-walks to set the flags. invalidate_page() drops exactly the
  // entry lookup() returned, if any; the TLB's memos answer both calls from
  // the lookup hit() just made, without probing again.
  if (is_write && tlb.may_hold(pid, gva_page)) tlb.invalidate_page(pid, gva_page);
  ctx_.count(Event::kTlbMiss);

  // ---- guest page-table walk ----------------------------------------------
  // A PS-bit leaf one (two) levels up shortens the walk by one (two)
  // pointer chases; the 4 KiB charge multiplier is exactly 1.0, keeping the
  // default configuration's virtual time bit-identical.
  ctx_.count(Event::kGuestPtWalk);
  const GuestPageTable::Lookup glu = pt.lookup(gva_page);
  ctx_.charge_ns(ctx_.cost.guest_walk_ns *
                 (1.0 - 0.25 * static_cast<double>(glu.gran)));
  Pte* pte = glu.pte;
  if (pte == nullptr || !pte->present) return {Status::kFaultNotPresent, 0};
  if (is_write && (!pte->writable || pte->uffd_wp)) return {Status::kFaultNotWritable, 0};
  pte->accessed = true;
  if (is_write && !pte->dirty) {
    pte->dirty = true;
    // The dirty flag lives in the leaf, so the logged unit is the leaf's
    // whole span: base GVA/GPA plus the granularity (4 KiB leaves log the
    // page itself, as before).
    track.dispatch(TrackLayer::kGuestPtDirty,
                   {&vcpu_, pid, gran_floor(gva_page, glu.gran), pte->gpa_page,
                    glu.gran});
  }
  const Gpa gpa = glu.gpa_page | page_offset(gva);

  // ---- EPT walk ------------------------------------------------------------
  ctx_.count(Event::kEptWalk);
  Ept::Lookup elu = ept_.lookup(gpa);
  ctx_.charge_ns(ctx_.cost.ept_walk_ns *
                 (1.0 - 0.25 * static_cast<double>(elu.gran)));
  if (elu.entry == nullptr || !elu.entry->present) {
    // EPT violation: exit to the hypervisor, which back-fills the mapping.
    ctx_.charge_us(ctx_.cost.ept_violation_us);
    vcpu_.vmexit_to_root(Event::kVmExitEptViolation, [&] {
      vcpu_.exits()->on_ept_violation(vcpu_, gpa, is_write);
    });
    elu = ept_.lookup(gpa);
    if (elu.entry == nullptr || !elu.entry->present) {
      throw std::logic_error("EPT violation handler did not map the GPA");
    }
  }
  EptEntry* epte = elu.entry;
  const Gpa ept_leaf_base = gran_floor(page_floor(gpa), elu.gran);
  if (is_write && !epte->writable) {
    // Write to a write-protected EPT entry: an EPT violation the page-track
    // fault chain must resolve (KVM-page_track-style write interception).
    // Unlike the not-present case the hypervisor has no generic fix-up, so
    // an unhandled fault is a configuration error.
    ctx_.count(Event::kEptWpFault);
    if (!track.dispatch(TrackLayer::kEptWpFault,
                        {&vcpu_, pid, gva_page, glu.gpa_page}) ||
        !epte->writable) {
      throw std::logic_error("write to a write-protected EPT entry with no handler");
    }
  }
  // SPP: writes to a sub-page whose permission bit is clear raise an
  // SPP-violation exit before any dirty state changes (guard semantics).
  if (is_write && epte->spp && spp_ != nullptr && !spp_->write_allowed(gpa)) {
    ctx_.count(Event::kSppViolation);
    ctx_.count(Event::kVmExit);
    ctx_.charge_us(ctx_.cost.spp_violation_us);
    return {Status::kFaultSubPage, 0};
  }

  if (!epte->accessed) {
    epte->accessed = true;
    track.dispatch(TrackLayer::kEptAccessed,
                   {&vcpu_, pid, gva_page, ept_leaf_base, elu.gran});
  }
  if (is_write && !epte->dirty) {
    epte->dirty = true;
    ctx_.count(Event::kEptDirtySet);
    // One dirty flag per leaf: PML logs the leaf's base at the leaf's
    // granularity (the precision loss eager splitting removes).
    track.dispatch(TrackLayer::kEptDirty,
                   {&vcpu_, pid, gva_page, ept_leaf_base, elu.gran});
  }

  // The fill granularity is the largest region over which BOTH translation
  // stages are contiguous: min of the two leaf sizes.
  const PageGran fill_gran = glu.gran < elu.gran ? glu.gran : elu.gran;
  const Gva fill_base = gran_floor(gva_page, fill_gran);
  TlbEntry te;
  te.gran = fill_gran;
  // From the walked per-page GPA, not the leaf's: a segment's shared Pte
  // names the run's base, whatever page inside the run was accessed.
  te.gpa_page = glu.gpa_page - (gva_page - fill_base);
  te.hpa_page =
      epte->hpa_page + gran_offset(gran_floor(glu.gpa_page, fill_gran), elu.gran);
  // SPP pages never cache write permission: every store must re-consult the
  // sub-page mask.
  te.writable = pte->writable && !pte->uffd_wp && epte->writable && !epte->spp;
  te.dirty = pte->dirty && epte->dirty;
  tlb.insert(pid, fill_base, te);
  return {Status::kOk, elu.hpa_page | page_offset(gva)};
}

}  // namespace ooh::sim

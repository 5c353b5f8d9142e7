#include "sim/page_track.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/exec_context.hpp"
#include "sim/vcpu.hpp"

namespace ooh::sim {

std::string_view track_layer_name(TrackLayer layer) noexcept {
  switch (layer) {
    case TrackLayer::kGuestPtDirty: return "guest-pt-dirty";
    case TrackLayer::kEptDirty: return "ept-dirty";
    case TrackLayer::kEptAccessed: return "ept-accessed";
    case TrackLayer::kEptWpFault: return "ept-wp-fault";
    case TrackLayer::kGuestWpFault: return "guest-wp-fault";
    case TrackLayer::kPmlDrain: return "pml-drain";
    case TrackLayer::kCount: break;
  }
  return "?";
}

void WriteTrackRegistry::register_notifier(TrackLayer layer, PageTrackNotifier* n,
                                           bool is_enabled) {
  if (n == nullptr) throw std::invalid_argument("null page-track notifier");
  if (registered(layer, n)) {
    throw std::logic_error("notifier already registered on this layer");
  }
  chain(layer).push_back(Registration{n, is_enabled, 0});
}

void WriteTrackRegistry::unregister_notifier(TrackLayer layer, PageTrackNotifier* n) {
  auto& regs = chain(layer);
  const auto it = std::find_if(regs.begin(), regs.end(),
                               [n](const Registration& r) { return r.notifier == n; });
  if (it == regs.end()) {
    throw std::logic_error("notifier not registered on this layer");
  }
  regs.erase(it);
}

bool WriteTrackRegistry::registered(TrackLayer layer,
                                    const PageTrackNotifier* n) const noexcept {
  const auto& regs = chain(layer);
  return std::any_of(regs.begin(), regs.end(),
                     [n](const Registration& r) { return r.notifier == n; });
}

void WriteTrackRegistry::set_enabled(TrackLayer layer, PageTrackNotifier* n,
                                     bool is_enabled) {
  for (Registration& r : chain(layer)) {
    if (r.notifier == n) {
      r.enabled = is_enabled;
      return;
    }
  }
  throw std::logic_error("set_enabled on a notifier not registered on this layer");
}

bool WriteTrackRegistry::enabled(TrackLayer layer,
                                 const PageTrackNotifier* n) const noexcept {
  for (const Registration& r : chain(layer)) {
    if (r.notifier == n) return r.enabled;
  }
  return false;
}

bool WriteTrackRegistry::any_enabled(TrackLayer layer) const noexcept {
  const auto& regs = chain(layer);
  return std::any_of(regs.begin(), regs.end(),
                     [](const Registration& r) { return r.enabled; });
}

bool WriteTrackRegistry::dispatch(TrackLayer layer, const TrackEvent& ev) {
  Chain& c = chains_[static_cast<std::size_t>(layer)];
  ++c.dispatched;
  bool handled = false;
  // Index loop, not iterators: a notifier may register or unregister
  // notifiers on this layer — including itself — while handling an event
  // (e.g. a tracker tearing down).
  for (std::size_t i = 0; i < c.regs.size();) {
    if (!c.regs[i].enabled) {
      ++i;
      continue;
    }
    PageTrackNotifier* n = c.regs[i].notifier;
    ++c.regs[i].delivered;
    if (n->on_track(layer, ev)) {
      handled = true;
      if (stops_at_first_handler(layer)) break;
    }
    // Unregistration during the callback shifts the chain left; advance
    // only if slot i still holds the notifier that just ran.
    if (i < c.regs.size() && c.regs[i].notifier == n) ++i;
  }
  return handled;
}

void WriteTrackRegistry::dispatch_drain(Vcpu& vcpu, std::span<const Gpa> gpas) {
  Chain& c = chains_[static_cast<std::size_t>(TrackLayer::kPmlDrain)];
  c.dispatched += gpas.size();
  for (std::size_t i = 0; i < c.regs.size();) {
    if (!c.regs[i].enabled) {
      ++i;
      continue;
    }
    PageTrackNotifier* n = c.regs[i].notifier;
    c.regs[i].delivered += gpas.size();
    n->on_drain(vcpu, gpas);
    // As in dispatch(): advance only if slot i still holds this notifier.
    if (i < c.regs.size() && c.regs[i].notifier == n) ++i;
  }
}

void WriteTrackRegistry::register_flush(PageTrackNotifier* n) {
  if (n == nullptr) throw std::invalid_argument("null page-track flush notifier");
  if (std::find(flush_chain_.begin(), flush_chain_.end(), n) != flush_chain_.end()) {
    throw std::logic_error("flush notifier already registered");
  }
  flush_chain_.push_back(n);
}

void WriteTrackRegistry::unregister_flush(PageTrackNotifier* n) {
  const auto it = std::find(flush_chain_.begin(), flush_chain_.end(), n);
  if (it == flush_chain_.end()) throw std::logic_error("flush notifier not registered");
  flush_chain_.erase(it);
}

void WriteTrackRegistry::notify_flush(u32 pid, Gva start, Gva end) {
  for (std::size_t i = 0; i < flush_chain_.size(); ++i) {
    flush_chain_[i]->on_track_flush(pid, start, end);
  }
}

u64 WriteTrackRegistry::events_delivered(TrackLayer layer,
                                         const PageTrackNotifier* n) const noexcept {
  for (const Registration& r : chain(layer)) {
    if (r.notifier == n) return r.delivered;
  }
  return 0;
}

u64 WriteTrackRegistry::events_dispatched(TrackLayer layer) const noexcept {
  return chains_[static_cast<std::size_t>(layer)].dispatched;
}

// ---- HypPmlLogger -----------------------------------------------------------

namespace {

bool hyp_pml_active(const Vcpu& vcpu) noexcept {
  const Vmcs& v = vcpu.vmcs();
  return v.control(kEnablePml) && v.read(VmcsField::kPmlAddress) != 0;
}

bool read_log_active(const Vcpu& vcpu) noexcept {
  const Vmcs& v = vcpu.vmcs();
  return v.control(kEnablePml) && v.control(kEnablePmlReadLog) &&
         v.read(VmcsField::kPmlAddress) != 0;
}

bool guest_pml_active(Vcpu& vcpu) noexcept {
  const Vmcs& v = vcpu.vmcs();
  if (!v.control(kEnableGuestPml)) return false;
  const Vmcs* shadow = vcpu.shadow_vmcs();
  return shadow != nullptr && shadow->read(VmcsField::kGuestPmlEnable) != 0 &&
         shadow->read(VmcsField::kGuestPmlAddress) != 0;
}

/// PML-full VM-exit into the root-mode handler (drain + index reset).
void raise_hyp_pml_full(Vcpu& vcpu) {
  vcpu.vmexit_to_root(Event::kVmExitPmlFull,
                      [&] { vcpu.exits()->on_pml_full(vcpu); });
}

}  // namespace

void HypPmlLogger::log_gpa(Vcpu& vcpu, u64 entry) {
  ExecContext& ctx = vcpu.ctx();
  Vmcs& v = vcpu.vmcs();
  u16 idx = static_cast<u16>(v.read(VmcsField::kPmlIndex));
  bool faulted = false;
  if (idx > kPmlIndexStart) {
    // Defensive: the eager full-exit below resets the index the moment the
    // 512th entry lands, so a wrapped index here means a handler declined
    // to drain. Give it one more exit, then treat it as the bug it is.
    raise_hyp_pml_full(vcpu);
    idx = static_cast<u16>(v.read(VmcsField::kPmlIndex));
    if (idx > kPmlIndexStart) {
      throw std::logic_error("PML-full handler did not reset the PML index");
    }
  } else if (ctx.fault_fire(fault::FaultPoint::kPmlForceFull)) {
    // Injected fault: hardware reports buffer-full at this (adversarial,
    // possibly mid-buffer) index; the handler drains the partial buffer.
    faulted = true;
    raise_hyp_pml_full(vcpu);
    idx = static_cast<u16>(v.read(VmcsField::kPmlIndex));
    if (idx > kPmlIndexStart) {
      throw std::logic_error("PML-full handler did not reset the PML index");
    }
  }
  const Hpa buf = v.read(VmcsField::kPmlAddress);
  ctx.pmem.write_u64(buf + u64{idx} * 8, entry);
  const u16 next = static_cast<u16>(idx - 1);  // wraps past 0
  v.write(VmcsField::kPmlIndex, next);
  ctx.count(Event::kPmlLogGpa);
  ctx.charge_ns(ctx.cost.pml_log_ns);
  if (next > kPmlIndexStart) {
    // That was the 512th entry: the buffer-full VM-exit fires as the write
    // that fills the buffer retires (SDM PML semantics), not lazily on the
    // next logging attempt.
    raise_hyp_pml_full(vcpu);
    if (static_cast<u16>(v.read(VmcsField::kPmlIndex)) > kPmlIndexStart) {
      throw std::logic_error("PML-full handler did not reset the PML index");
    }
  }
  if (faulted) ctx.fault_audit();
}

bool HypPmlLogger::on_track(TrackLayer layer, const TrackEvent& ev) {
  Vcpu& vcpu = *ev.vcpu;
  if (layer == TrackLayer::kEptAccessed) {
    // Read-logging extension: accessed-flag transitions log the GPA so the
    // hypervisor can estimate the working set (touched, not just dirtied).
    if (!read_log_active(vcpu)) return false;
    vcpu.ctx().count(Event::kPmlLogRead);
    log_gpa(vcpu, pml_entry_encode(ev.gpa_page, ev.gran));
    return true;
  }
  // kEptDirty. Under read-logging the accessed transition already logged
  // this page; logging the dirty transition too would double-count it.
  if (!hyp_pml_active(vcpu) || read_log_active(vcpu)) return false;
  // One buffer entry per leaf, at the leaf's granularity (a 2 MiB leaf
  // costs one entry, not 512 — PML's precision/byte trade-off).
  log_gpa(vcpu, pml_entry_encode(ev.gpa_page, ev.gran));
  return true;
}

// ---- GuestPmlLogger ---------------------------------------------------------

namespace {

/// Post the EPML self-IPI into the OoH module (drain + index reset), unless
/// an injected fault drops it. True when the IPI was actually delivered.
/// No VM-exit either way — that is the whole point of EPML.
bool raise_guest_pml_full(Vcpu& vcpu) {
  ExecContext& ctx = vcpu.ctx();
  if (!ctx.fault_gate_self_ipi()) {
    // The IPI was dropped by an injected suppression fault; the buffer stays
    // wrapped until the bounded-retry redelivery. The machine is settled at
    // this point, so run the post-fault audit right at the blast site.
    ctx.fault_audit();
    return false;
  }
  ctx.count(Event::kSelfIpi);
  ctx.charge_us(ctx.cost.self_ipi_us + ctx.cost.irq_dispatch_us);
  vcpu.irq_sink()->on_guest_pml_full(vcpu);
  return true;
}

}  // namespace

bool GuestPmlLogger::on_track(TrackLayer /*layer*/, const TrackEvent& ev) {
  Vcpu& vcpu = *ev.vcpu;
  if (!guest_pml_active(vcpu)) return false;
  ExecContext& ctx = vcpu.ctx();
  Vmcs& shadow = *vcpu.shadow_vmcs();
  u16 idx = static_cast<u16>(shadow.read(VmcsField::kGuestPmlIndex));
  bool faulted = false;
  if (idx > kPmlIndexStart) {
    // Buffer still full from an earlier fill whose self-IPI was dropped by
    // an injected fault or deferred by an in-progress drain. Retry delivery
    // (the bounded-retry redelivery model); while the IPI stays undelivered
    // this write's entry has nowhere to go and is lost — visibly.
    const bool delivered = raise_guest_pml_full(vcpu);
    idx = static_cast<u16>(shadow.read(VmcsField::kGuestPmlIndex));
    if (!delivered || idx > kPmlIndexStart) {
      ctx.count(Event::kEpmlEntryLost);
      return true;
    }
  } else if (ctx.fault_fire(fault::FaultPoint::kEpmlForceFull)) {
    // Injected fault: report buffer-full at this adversarial index. The
    // IPI delivery itself still goes through the suppression gate; if it
    // is dropped the partial buffer simply stays in place (nothing lost —
    // there is still room for this entry).
    faulted = true;
    if (raise_guest_pml_full(vcpu)) {
      idx = static_cast<u16>(shadow.read(VmcsField::kGuestPmlIndex));
    }
  }
  const Hpa buf = shadow.read(VmcsField::kGuestPmlAddress);
  ctx.pmem.write_u64(buf + u64{idx} * 8, pml_entry_encode(ev.gva_page, ev.gran));
  const u16 next = static_cast<u16>(idx - 1);
  shadow.write(VmcsField::kGuestPmlIndex, next);
  ctx.count(Event::kPmlLogGvaGuest);
  ctx.charge_ns(ctx.cost.pml_log_ns);
  if (next > kPmlIndexStart) {
    // That was the 512th entry: the posted self-IPI fires as the filling
    // write retires (mirroring hardware PML's eager full exit). A dropped
    // IPI leaves the index wrapped; the next tracked write retries.
    (void)raise_guest_pml_full(vcpu);
  }
  if (faulted) ctx.fault_audit();
  return true;
}

}  // namespace ooh::sim

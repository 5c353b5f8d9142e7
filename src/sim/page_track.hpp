// The page-track notifier chain: one seam through which every
// dirty-producing event of the machine flows exactly once.
//
// KVM solves the "many consumers want to observe guest writes" problem with
// its page_track notifier-head design (kvm_page_track_notifier_node); this
// is the simulator's equivalent, layered by *where* in the walk circuit the
// event originates:
//
//   kGuestPtDirty   a write set a guest-PTE dirty flag (GVA event) — the
//                   EPML trigger point.
//   kEptDirty       a write set an EPT dirty flag (GPA event) — the Intel
//                   PML trigger point.
//   kEptAccessed    an access set an EPT accessed flag (GPA event) — the
//                   read-logging / WSS extension's trigger point.
//   kEptWpFault     a write hit a write-protected EPT entry — the
//                   KVM-page_track-style write-protection trigger point.
//   kGuestWpFault   a write hit a non-writable / uffd-wp guest PTE — the
//                   guest kernel's soft-dirty and userfaultfd trigger point.
//   kPmlDrain       the GPAs drained from the hypervisor-level PML buffer
//                   are routed to their consumers (migration bitmap, SPML
//                   ring, ...) — the generalization of the paper's two-flag
//                   enabled_by_guest/enabled_by_hyp coexistence logic
//                   (§IV-C item 3) to N consumers. A drained buffer is one
//                   dispatch (dispatch_drain): each consumer receives the
//                   whole span of GPAs, in logging order.
//
// Consumers register a PageTrackNotifier on the layers they care about.
// Dispatch order is registration order (deterministic, so virtual-time
// results are reproducible bit-for-bit); each registration carries its own
// enable state and a delivered-event counter. A separate flush chain
// (mirroring KVM's track_flush_slot) tells consumers when an address range
// is torn down so they can drop derived state.
//
// The registry itself charges no virtual time: cost attribution belongs to
// the notifiers, which model the hardware circuit or software handler that
// reacts to the event.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "base/types.hpp"

namespace ooh::sim {

class Vcpu;

enum class TrackLayer : std::size_t {
  kGuestPtDirty = 0,
  kEptDirty,
  kEptAccessed,
  kEptWpFault,
  kGuestWpFault,
  kPmlDrain,
  kCount
};

inline constexpr std::size_t kTrackLayerCount =
    static_cast<std::size_t>(TrackLayer::kCount);

[[nodiscard]] std::string_view track_layer_name(TrackLayer layer) noexcept;

/// One dirty-producing event. Which fields are meaningful depends on the
/// layer: walk-level layers fill everything they know (the walk has both
/// addresses in hand); kPmlDrain only carries the logged GPA.
struct TrackEvent {
  Vcpu* vcpu = nullptr;  ///< the vCPU whose walk/drain produced the event.
  u32 pid = 0;           ///< guest process (0 when unknown, e.g. drains).
  Gva gva_page = 0;      ///< page-aligned GVA (0 when unknown).
  Gpa gpa_page = 0;      ///< page-aligned GPA (0 when unknown).
  /// Granularity of the leaf whose flag transition produced the event. For
  /// dirty/accessed layers gva_page/gpa_page are then the leaf's *base*:
  /// one flag per leaf means one event per leaf, covering gran_size bytes.
  PageGran gran = PageGran::k4K;
};

class PageTrackNotifier {
 public:
  virtual ~PageTrackNotifier() = default;

  /// React to an event on a layer this notifier registered for. Return true
  /// iff the event was *handled*. Fault layers (kEptWpFault, kGuestWpFault)
  /// stop dispatch at the first handler, mirroring a fault-handler chain;
  /// logging layers always run the whole chain and ignore the result.
  virtual bool on_track(TrackLayer layer, const TrackEvent& ev) = 0;

  /// The GPAs of one drained PML buffer (kPmlDrain), page-granular and in
  /// logging order. The default hands each to on_track as its own event;
  /// a consumer that moves GPAs in bulk overrides this. kPmlDrain consumers
  /// charge no virtual time: the drain charges its per-entry cost before
  /// the dispatch, and the result equals per-GPA dispatch only because no
  /// consumer adds a charge between two GPAs.
  virtual void on_drain(Vcpu& vcpu, std::span<const Gpa> gpas) {
    for (const Gpa gpa : gpas) {
      (void)on_track(TrackLayer::kPmlDrain, {&vcpu, /*pid=*/0, /*gva_page=*/0, gpa});
    }
  }

  /// An address range of `pid` is being torn down (munmap): drop any
  /// derived state (caches, pending logs) covering [start, end).
  /// Mirrors KVM's track_flush_slot.
  virtual void on_track_flush(u32 pid, Gva start, Gva end) {
    (void)pid;
    (void)start;
    (void)end;
  }
};

class WriteTrackRegistry {
 public:
  /// Append `n` to `layer`'s chain (dispatch order == registration order).
  /// Registrations start enabled. Registering the same notifier twice on
  /// one layer is a logic error.
  void register_notifier(TrackLayer layer, PageTrackNotifier* n, bool enabled = true);
  void unregister_notifier(TrackLayer layer, PageTrackNotifier* n);
  [[nodiscard]] bool registered(TrackLayer layer, const PageTrackNotifier* n) const noexcept;

  /// Per-consumer enable state: a disabled registration keeps its chain
  /// position and counters but receives no events.
  void set_enabled(TrackLayer layer, PageTrackNotifier* n, bool enabled);
  [[nodiscard]] bool enabled(TrackLayer layer, const PageTrackNotifier* n) const noexcept;
  /// True iff at least one enabled notifier sits on `layer`.
  [[nodiscard]] bool any_enabled(TrackLayer layer) const noexcept;

  /// Dispatch `ev` to `layer`'s enabled notifiers in registration order.
  /// Returns true iff some notifier handled it; fault layers stop at the
  /// first handler, logging layers always run the full chain.
  bool dispatch(TrackLayer layer, const TrackEvent& ev);

  /// Dispatch one drained PML buffer on kPmlDrain: each enabled notifier
  /// gets the whole span through on_drain, in registration order. Counts
  /// as gpas.size() events on the layer and for each notifier it reaches,
  /// exactly as a dispatch() per GPA would. A registration change made
  /// inside on_drain applies to the notifiers after it in the chain: those
  /// before it have already received the whole span.
  void dispatch_drain(Vcpu& vcpu, std::span<const Gpa> gpas);

  /// Flush chain: registration independent of the event layers.
  void register_flush(PageTrackNotifier* n);
  void unregister_flush(PageTrackNotifier* n);
  void notify_flush(u32 pid, Gva start, Gva end);

  /// Events delivered to `n` on `layer` since registration (0 if absent).
  [[nodiscard]] u64 events_delivered(TrackLayer layer, const PageTrackNotifier* n) const noexcept;
  /// Total events dispatched on `layer` (delivered or not).
  [[nodiscard]] u64 events_dispatched(TrackLayer layer) const noexcept;

  [[nodiscard]] std::size_t notifier_count(TrackLayer layer) const noexcept {
    return chain(layer).size();
  }

  /// Read-only visit of `layer`'s chain in dispatch order as
  /// fn(const PageTrackNotifier*, enabled, delivered); the coherence oracle
  /// uses this to audit the registry without a mutation path.
  template <typename Fn>
  void for_each_registration(TrackLayer layer, Fn&& fn) const {
    for (const Registration& r : chain(layer)) fn(r.notifier, r.enabled, r.delivered);
  }

  /// Read-only visit of the flush chain as fn(const PageTrackNotifier*).
  template <typename Fn>
  void for_each_flush(Fn&& fn) const {
    for (const PageTrackNotifier* n : flush_chain_) fn(n);
  }

 private:
  struct Registration {
    PageTrackNotifier* notifier = nullptr;
    bool enabled = true;
    u64 delivered = 0;
  };
  struct Chain {
    std::vector<Registration> regs;
    u64 dispatched = 0;
  };

  [[nodiscard]] static constexpr bool stops_at_first_handler(TrackLayer layer) noexcept {
    return layer == TrackLayer::kEptWpFault || layer == TrackLayer::kGuestWpFault;
  }
  [[nodiscard]] const std::vector<Registration>& chain(TrackLayer layer) const noexcept {
    return chains_[static_cast<std::size_t>(layer)].regs;
  }
  [[nodiscard]] std::vector<Registration>& chain(TrackLayer layer) noexcept {
    return chains_[static_cast<std::size_t>(layer)].regs;
  }

  Chain chains_[kTrackLayerCount];
  std::vector<PageTrackNotifier*> flush_chain_;
};

// ---- built-in hardware circuits ---------------------------------------------
//
// The PML logging circuits are themselves consumers of the chain: the walk
// dispatches the dirty-flag transition, and the circuit — if its VMCS
// controls arm it — performs the hardware store into the PML buffer. The
// vCPU registers both at construction, first in their chains, so software
// consumers added later observe events *after* the hardware logged them,
// exactly as on a real machine.

/// Hypervisor-level PML (original Intel PML) + the read-logging extension.
/// kEptDirty: a write that set an EPT dirty flag logs the GPA at
/// VMCS.PML_ADDRESS[PML_INDEX--]; index underflow raises a PML-full VM-exit
/// *before* logging (SDM). kEptAccessed: with kEnablePmlReadLog, an
/// accessed-flag transition logs too (WSS estimation).
class HypPmlLogger final : public PageTrackNotifier {
 public:
  bool on_track(TrackLayer layer, const TrackEvent& ev) override;

 private:
  /// `entry` is the value stored into the buffer: a gran-aligned base with
  /// the granularity code in the low bits (pml_entry_encode) — code 0 for
  /// 4 KiB pages keeps default entries bit-identical to plain GPAs.
  static void log_gpa(Vcpu& vcpu, u64 entry);
};

/// Guest-level PML (the EPML extension): a write that set a guest-PTE dirty
/// flag logs the GVA into the buffer named by the shadow VMCS; a full
/// buffer raises a posted self-IPI into the guest OoH module — no VM-exit.
class GuestPmlLogger final : public PageTrackNotifier {
 public:
  bool on_track(TrackLayer layer, const TrackEvent& ev) override;
};

}  // namespace ooh::sim

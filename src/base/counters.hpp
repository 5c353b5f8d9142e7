// Event counters: the simulation's ground-truth record of *what happened*.
//
// Every mechanism increments a counter when it fires; the analytical model
// (Formulas 1-4) and the benches consume counts, and tests assert on them.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "base/types.hpp"

namespace ooh {

enum class Event : std::size_t {
  kContextSwitch = 0,     ///< M1: scheduler switch on the vCPU.
  kPageFaultDemand,       ///< first-touch minor fault (demand paging).
  kPageFaultSoftDirty,    ///< write fault that sets the soft-dirty bit (/proc).
  kPageFaultUffd,         ///< fault delivered to userspace via userfaultfd.
  kVmExit,                ///< any VM-exit.
  kVmExitPmlFull,         ///< VM-exit caused by PML buffer full.
  kVmExitEptViolation,    ///< VM-exit caused by an EPT violation.
  kSppViolation,          ///< write blocked by a sub-page permission (SPP).
  kPmlLogRead,            ///< GPA logged on an accessed-flag transition (WSS ext).
  kHypercall,             ///< guest->hypervisor hypercall.
  kVmread,                ///< vmread executed in guest mode (shadow VMCS).
  kVmwrite,               ///< vmwrite executed in guest mode (shadow VMCS).
  kSelfIpi,               ///< EPML posted self-IPI (guest buffer full).
  kPmlLogGpa,             ///< GPA logged to the hypervisor-level PML buffer.
  kPmlLogGvaGuest,        ///< GVA logged to the EPML guest-level buffer.
  kRingBufCopyEntry,      ///< one entry copied PML buffer -> ring buffer.
  kRingBufFetchEntry,     ///< one entry copied ring buffer -> userspace (M18).
  kRingBufOverflow,       ///< ring-buffer entry dropped (buffer full).
  kReverseMapLookup,      ///< one GPA->GVA reverse-map lookup (SPML).
  kPagemapScan,           ///< one full /proc pagemap scan (M16).
  kClearRefs,             ///< one clear_refs soft-dirty reset (M15).
  kTlbFlush,
  kTlbHit,
  kTlbMiss,
  kGuestPtWalk,           ///< 4-level guest page-table walk.
  kEptWalk,               ///< 4-level EPT walk.
  kEptDirtySet,           ///< a write set an EPT dirty flag (PML trigger point).
  kEptWpFault,            ///< write hit a write-protected EPT entry (page_track).
  kDiskPageWrite,         ///< CRIU image page written.
  kUffdWriteUnprotect,    ///< tracker resolved a ufd write-protect fault.
  kSchedQuantum,          ///< timer-driven quantum expiry.
  kTrackerCollect,        ///< one DirtyTracker::collect() interval harvest.
  kGcCycle,               ///< one garbage-collection cycle.
  kMigrationRound,        ///< one live-migration pre-copy round.
  kMigrationPageSent,     ///< page transferred by live migration.
  kFaultInjected,         ///< a FaultPlan rule fired at an injection point.
  kSelfIpiSuppressed,     ///< EPML self-IPI dropped by an injected fault.
  kEpmlEntryLost,         ///< EPML write not logged: buffer full, IPI undelivered.
  kEpmlStaleEntryDropped, ///< EPML drain skipped an entry whose page went away.
  kTrackerDegraded,       ///< tracker fell back to a weaker technique.
  kMigrationSendRetry,    ///< migration send failed and was retried (backoff).
  kMigrationAborted,      ///< migration gave up (send retries exhausted).
  kTlbShootdownIpi,       ///< IPI sent to a remote vCPU to invalidate a stale translation.
  kDirtyRingFull,         ///< per-vCPU dirty ring full; entry diverted to the spill log.
  kPolicySwitch,          ///< adaptive control plane switched the tracker backend.
  kCount
};

inline constexpr std::size_t kEventCount = static_cast<std::size_t>(Event::kCount);

[[nodiscard]] std::string_view event_name(Event e) noexcept;

class EventCounters {
 public:
  void add(Event e, u64 n = 1) noexcept { counts_[idx(e)] += n; }
  [[nodiscard]] u64 get(Event e) const noexcept { return counts_[idx(e)]; }
  void reset() noexcept { counts_.fill(0); }

  /// Accumulate another counter set into this one (per-vCPU -> machine-wide).
  void merge(const EventCounters& other) noexcept {
    for (std::size_t i = 0; i < kEventCount; ++i) counts_[i] += other.counts_[i];
  }

  [[nodiscard]] bool operator==(const EventCounters& other) const noexcept {
    return counts_ == other.counts_;
  }

  /// Per-event difference `*this - since` (callers snapshot by value).
  [[nodiscard]] EventCounters diff(const EventCounters& since) const noexcept;

  /// Multi-line "name: count" rendering of the non-zero counters.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::size_t idx(Event e) noexcept { return static_cast<std::size_t>(e); }
  std::array<u64, kEventCount> counts_{};
};

}  // namespace ooh

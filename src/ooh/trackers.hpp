// The DirtyTracker backends (paper §III and §IV, plus the
// KVM-page_track-style write-protection backend built on the page-track
// notifier chain, segment-table soft-dirty, and the oracle).
#pragma once

#include <memory>
#include <unordered_set>

#include "base/page_bitmap.hpp"
#include "ooh/tracker.hpp"
#include "sim/page_track.hpp"

namespace ooh::guest {
class OohModule;
}

namespace ooh::lib {

/// One tracking technique behind a DirtyTracker session. A backend does only
/// its technique's work; the session attributes init, begin_interval and
/// collect to their phases on the process's vCPU, dedups collect()'s output
/// and replaces the backend (handoff).
class Backend {
 public:
  Backend(guest::GuestKernel& kernel, guest::Process& proc, Phases& phases)
      : kernel_(kernel), proc_(proc), phases_(phases) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual Technique technique() const noexcept = 0;
  virtual void init() {}
  virtual void begin_interval() {}
  /// Dirty page GVAs for the interval, in any order, possibly repeated.
  [[nodiscard]] virtual std::vector<Gva> collect() = 0;
  virtual void shutdown() {}
  /// Pages known to have been lost (ring overflow).
  [[nodiscard]] virtual u64 dropped() const { return 0; }
  /// The weaker technique to degrade to when init() hits bad_alloc.
  /// Returning the backend's own technique means "no fallback: rethrow".
  [[nodiscard]] virtual Technique fallback() const noexcept { return technique(); }

 protected:
  guest::GuestKernel& kernel_;
  guest::Process& proc_;
  Phases& phases_;  ///< the session's: fault service is charged to monitor.
};

/// The backend for technique `t` (not kAdaptive, which is a session).
[[nodiscard]] std::unique_ptr<Backend> make_backend(Technique t,
                                                    guest::GuestKernel& kernel,
                                                    guest::Process& proc,
                                                    Phases& phases);

/// /proc/PID/{clear_refs,pagemap} soft-dirty tracking -- the default in both
/// CRIU and Boehm GC (§III-B).
class ProcTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kProc; }

  void begin_interval() override;
  [[nodiscard]] std::vector<Gva> collect() override;
};

/// userfaultfd write-protect tracking (§III-A). Dirty addresses accumulate
/// synchronously while the Tracked faults; collect() just takes the set.
class UfdTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kUfd; }

  void init() override;
  void begin_interval() override;
  [[nodiscard]] std::vector<Gva> collect() override;
  void shutdown() override;

 private:
  std::unordered_set<Gva> pending_;
  bool first_interval_ = true;
};

/// Shadow PML (§IV-C): the hypervisor emulates per-process PML via
/// enable/disable_logging hypercalls; the library reverse-maps logged GPAs
/// to GVAs by parsing the page table through /proc -- the measured
/// bottleneck (Fig. 3).
class SpmlTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kSpml; }

  void init() override;
  [[nodiscard]] std::vector<Gva> collect() override;
  void shutdown() override;
  [[nodiscard]] u64 dropped() const override;
  [[nodiscard]] Technique fallback() const noexcept override {
    return Technique::kProc;  // no PML buffer: degrade to soft-dirty
  }

 private:
  static constexpr Gva kNoGva = ~Gva{0};  ///< rmap_cache_ slot not cached.

  /// The cached GVA of the page holding `gpa`, or kNoGva.
  [[nodiscard]] Gva cached_gva(Gpa gpa) const noexcept {
    const u64 page = page_index(gpa);
    return page < rmap_cache_.size() ? rmap_cache_[page] : kNoGva;
  }

  guest::OohModule* module_ = nullptr;
  /// GPA page -> GVA index built by reverse mapping, kNoGva where not cached.
  /// The paper's Boehm integration reuses first-cycle addresses (§VI-E
  /// footnote), so lookups only pay M16/M17 for GPAs not yet in the cache.
  /// An entry is trusted only while the process's page table still maps its
  /// GVA to that GPA: munmap and swap-out free frames that a later mapping
  /// recycles. Grown on demand up to the highest cached GPA page; every GPA
  /// passed seen_'s bound first, so it never outgrows the VM's memory.
  std::vector<Gva> rmap_cache_;
  /// Dedup bitmap over the guest-physical space for the fetched GPAs; the
  /// tracker's own, so userspace never touches hypervisor state.
  PageBitmap seen_;
  /// The interval's GPAs still waiting for a reverse mapping; empty between
  /// collects.
  PageBitmap missing_;
};

/// Extended PML (§IV-D): the hardware logs GVAs straight into a guest-level
/// buffer; collection is a plain ring-buffer read.
class EpmlTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kEpml; }

  void init() override;
  [[nodiscard]] std::vector<Gva> collect() override;
  void shutdown() override;
  [[nodiscard]] u64 dropped() const override;
  [[nodiscard]] Technique fallback() const noexcept override {
    return Technique::kSpml;  // guest buffer page unavailable: degrade to SPML
  }

 private:
  guest::OohModule* module_ = nullptr;
};

/// KVM-page_track-style write-protection tracking, built on the kEptWpFault
/// layer of the page-track notifier chain: init write-protects every EPT
/// entry backing the tracked process; a first write raises an EPT
/// permission fault that records the GVA and un-protects the entry (one
/// VM-exit per dirty page); collect() re-protects the harvested pages.
/// Pages demand-mapped after the protect pass are caught at their EPT
/// dirty-flag transition (kEptDirty), so no dirty page is missed.
class WpTracker final : public Backend, public sim::PageTrackNotifier {
 public:
  using Backend::Backend;
  ~WpTracker() override;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kWp; }

  // ---- sim::PageTrackNotifier (kEptWpFault + kEptDirty) ---------------------
  bool on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) override;

  // ---- Backend --------------------------------------------------------------
  void init() override;
  [[nodiscard]] std::vector<Gva> collect() override;
  void shutdown() override;
  [[nodiscard]] Technique fallback() const noexcept override {
    return Technique::kProc;  // protect pass failed: degrade to soft-dirty
  }

 private:
  /// Write-protect the EPT entries backing `pages` (batch: one TLB shootdown).
  void protect_pages(const std::vector<Gva>& pages);

  std::unordered_set<Gva> pending_;    ///< dirty GVAs since the last collect.
  std::unordered_set<Gpa> protected_;  ///< GPAs whose EPT entry we un-writabled.
  bool registered_ = false;
};

/// Segment-table soft-dirty tracking (Teabe/Tchana-style segmentation): at
/// init() the process's page table is converted to the range-based
/// SegmentTable backend, then the /proc clear_refs + pagemap flow runs
/// unchanged through the shared Mmu walk seam. Translation metadata lives
/// per *segment* (one Pte for a contiguous run), so dirty reporting is a
/// superset of the truth — a write anywhere in a run reports the whole run.
/// The comparison point quantifies what coarse translation metadata costs
/// in precision versus what it saves in walk/arm work.
class SegTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override { return Technique::kSeg; }

  void init() override;
  void begin_interval() override;
  [[nodiscard]] std::vector<Gva> collect() override;
};

/// The hypothetical zero-cost technique of §VI-B ("oracle"): perfect dirty
/// information with E(C_oracle) = 0. Reads the simulator's ground truth.
class OracleTracker final : public Backend {
 public:
  using Backend::Backend;
  [[nodiscard]] Technique technique() const noexcept override {
    return Technique::kOracle;
  }

  void begin_interval() override;
  [[nodiscard]] std::vector<Gva> collect() override;

 private:
  u64 baseline_seq_ = 0;  ///< write sequence at the start of the interval.
};

}  // namespace ooh::lib

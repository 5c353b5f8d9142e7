#include "ooh/trackers.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "base/clock.hpp"
#include "guest/ooh_module.hpp"
#include "guest/procfs.hpp"
#include "guest/uffd.hpp"

namespace ooh::lib {
namespace {

/// Load (or re-load) the OoH kernel module in the requested mode. One design
/// is active per guest at a time, matching the paper's prototypes.
guest::OohModule& ensure_module(guest::GuestKernel& kernel, guest::OohMode mode) {
  guest::OohModule* mod = kernel.ooh_module();
  if (mod != nullptr && mod->mode() != mode) {
    kernel.unload_ooh_module();
    mod = nullptr;
  }
  return mod != nullptr ? *mod : kernel.load_ooh_module(mode);
}

}  // namespace

// ---- ProcTracker ------------------------------------------------------------

void ProcTracker::begin_interval() {
  kernel_.procfs().clear_refs(proc_);
}

std::vector<Gva> ProcTracker::collect() {
  return kernel_.procfs().pagemap_dirty(proc_);
}

// ---- UfdTracker --------------------------------------------------------------

void UfdTracker::init() {
  kernel_.uffd().register_wp(
      proc_, [this](Gva page) { pending_.insert(page); }, &phases_.monitor);
}

void UfdTracker::begin_interval() {
  // Registration already write-protected everything; later intervals must
  // re-protect so second writes to the same page fault again.
  if (first_interval_) {
    first_interval_ = false;
    return;
  }
  kernel_.uffd().rearm_wp(proc_);
}

std::vector<Gva> UfdTracker::collect() {
  std::vector<Gva> out(pending_.begin(), pending_.end());
  pending_.clear();
  return out;
}

void UfdTracker::shutdown() {
  kernel_.uffd().unregister(proc_);
}

// ---- SpmlTracker -------------------------------------------------------------

void SpmlTracker::init() {
  module_ = &ensure_module(kernel_, guest::OohMode::kSpml);
  module_->track(proc_);
  seen_ = PageBitmap(kernel_.vm().mem_bytes());
  missing_ = PageBitmap(kernel_.vm().mem_bytes());
}

std::vector<Gva> SpmlTracker::collect() {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  const std::vector<u64> fetched = module_->fetch(proc_);  // charges the RB copy

  // Deduplicate in first-seen order: a page drained more than once re-logs
  // within the interval. DirtyTracker::collect orders the GVAs afterwards.
  std::vector<Gpa> gpas;
  gpas.reserve(fetched.size());
  {
    PageBitmap::Unique unique(seen_, gpas);
    for (const Gpa gpa : fetched) unique.add(gpa);
  }

  // Reverse mapping GPA -> GVA (§IV-C item 2): a userspace page-table scan
  // through /proc (M16) plus a per-GPA lookup (M17) -- the dominant SPML
  // term (Fig. 3). Resolved addresses are cached and reused by later
  // intervals, as the paper's Boehm integration does (§VI-E footnote 2), so
  // only GPAs without a live cached translation pay the cost. A cached GVA
  // whose page was since unmapped or swapped out, or now maps another
  // frame, is a miss: the GPA may have been recycled into another mapping.
  sim::GuestPageTable& pt = kernel_.page_table(proc_);
  std::vector<Gva> out;
  out.reserve(gpas.size());
  std::vector<Gpa> misses;
  u64 top_page = 0;
  for (const Gpa gpa : gpas) {
    if (const Gva gva = cached_gva(gpa); gva != kNoGva) {
      const sim::GuestPageTable::Lookup hit = pt.lookup(gva);
      if (hit.pte != nullptr && hit.pte->present && hit.gpa_page == page_floor(gpa)) {
        out.push_back(gva);
        continue;
      }
    }
    misses.push_back(gpa);
    top_page = std::max(top_page, page_index(gpa));
  }
  if (misses.empty()) return out;

  m.count(Event::kPagemapScan);
  m.charge_us(m.cost.pagemap_scan_us(proc_.mapped_bytes()));
  const double per_page = m.cost.reverse_map_per_page_us(proc_.mapped_bytes());
  m.count(Event::kReverseMapLookup, misses.size());
  for (std::size_t i = 0; i < misses.size(); ++i) m.charge_us(per_page);

  // One streamed pagemap walk resolves every miss: each entry tests its
  // GPA against the miss set, and a hit clears the bit, so the first GVA in
  // walk order mapping a GPA wins. Once no miss is left the rest of the
  // walk does nothing.
  if (top_page >= rmap_cache_.size()) rmap_cache_.resize(top_page + 1, kNoGva);
  for (const Gpa gpa : misses) {
    rmap_cache_[page_index(gpa)] = kNoGva;
    missing_.test_and_set(gpa);
  }
  std::size_t left = misses.size();
  kernel_.procfs().pagemap_for_each(proc_, [&](Gva gva, Gpa gpa) {
    if (left != 0 && missing_.test_and_clear(gpa)) {
      rmap_cache_[page_index(gpa)] = gva;
      --left;
    }
  });
  // A GPA no longer mapped by the process (unmapped after it was logged)
  // resolves to nothing and is not reported.
  if (left != 0) missing_.reset(misses);
  for (const Gpa gpa : misses) {
    if (const Gva gva = cached_gva(gpa); gva != kNoGva) out.push_back(gva);
  }
  return out;
}

void SpmlTracker::shutdown() {
  if (module_ != nullptr && module_->tracking(proc_)) module_->untrack(proc_);
}

u64 SpmlTracker::dropped() const {
  return module_ != nullptr && module_->tracking(proc_) ? module_->dropped(proc_)
                                                        : 0;
}

// ---- EpmlTracker -------------------------------------------------------------

void EpmlTracker::init() {
  module_ = &ensure_module(kernel_, guest::OohMode::kEpml);
  module_->track(proc_);
}

std::vector<Gva> EpmlTracker::collect() {
  // The hardware already logged GVAs: collection is a ring-buffer read.
  return module_->fetch(proc_);
}

void EpmlTracker::shutdown() {
  if (module_ != nullptr && module_->tracking(proc_)) module_->untrack(proc_);
}

u64 EpmlTracker::dropped() const {
  return module_ != nullptr && module_->tracking(proc_) ? module_->dropped(proc_)
                                                        : 0;
}

// ---- WpTracker ---------------------------------------------------------------

WpTracker::~WpTracker() {
  if (registered_) {
    for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
      sim::WriteTrackRegistry& track = kernel_.vm().track(cpu);
      track.unregister_notifier(sim::TrackLayer::kEptDirty, this);
      track.unregister_notifier(sim::TrackLayer::kEptWpFault, this);
    }
  }
}

bool WpTracker::on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) {
  if (layer == sim::TrackLayer::kEptDirty) {
    // A write dirtied an entry the protect pass never saw (page mapped
    // after it, e.g. by demand paging): no permission fault will fire for
    // it this interval, so record it here. collect() re-protects it.
    if (ev.pid != proc_.pid()) return false;
    pending_.insert(ev.gva_page);
    return true;
  }
  // kEptWpFault: a write hit an entry we protected. On real hardware this
  // is an EPT violation; the root-mode handler records the page, restores
  // write access, and invalidates the stale translation before resuming.
  if (!protected_.contains(ev.gpa_page)) return false;
  sim::Vcpu& vcpu = *ev.vcpu;
  sim::ExecContext& m = vcpu.ctx();
  VirtualClock::Scope attributed(m.clock, phases_.monitor);
  m.charge_us(m.cost.ept_violation_us);
  vcpu.vmexit_to_root(Event::kVmExitEptViolation, [&] {
    sim::EptEntry* e = vcpu.ept()->entry(ev.gpa_page);
    if (e != nullptr) e->writable = true;
    protected_.erase(ev.gpa_page);
    vcpu.tlb().invalidate_page(ev.pid, ev.gva_page);
  });
  if (ev.pid == proc_.pid()) pending_.insert(ev.gva_page);
  return true;
}

void WpTracker::protect_pages(const std::vector<Gva>& pages) {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  sim::Ept& ept = kernel_.vm().ept();
  sim::GuestPageTable& pt = kernel_.page_table(proc_);
  u64 protected_count = 0;
  for (const Gva page : pages) {
    // The page's own GPA: a segment or a huge leaf shares one Pte whose
    // gpa_page is the base of its whole run.
    const sim::GuestPageTable::Lookup leaf = pt.lookup(page);
    if (leaf.pte == nullptr || !leaf.pte->present) continue;
    sim::EptEntry* e = ept.entry(leaf.gpa_page);
    if (e == nullptr || !e->present || !e->writable) continue;
    e->writable = false;
    protected_.insert(leaf.gpa_page);
    ++protected_count;
  }
  m.charge_ns(m.cost.dbit_clear_ns * static_cast<double>(protected_count));
  // Cached translations may still claim write permission for the protected
  // pages; without this shootdown their writes would bypass the fault.
  kernel_.tlb_flush_pid(proc_);
  m.count(Event::kTlbFlush);
  m.charge_us(m.cost.tlb_flush_us);
}

void WpTracker::init() {
  if (kernel_.ctx_of(proc_).fault_fire(sim::fault::FaultPoint::kWpProtectFail)) {
    // Injected failure of the write-protect pass (KVM's page_track rmap
    // allocation returning ENOMEM): degrade before touching any EPT entry.
    throw std::bad_alloc{};
  }
  // EPT dirty/WP events dispatch on the chain of the vCPU that executed
  // the write, so listen on every vCPU's chain (each event fires on exactly
  // one of them).
  for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
    sim::WriteTrackRegistry& track = kernel_.vm().track(cpu);
    track.register_notifier(sim::TrackLayer::kEptWpFault, this);
    track.register_notifier(sim::TrackLayer::kEptDirty, this);
  }
  registered_ = true;
  // Initial protect pass over everything currently mapped (one ioctl-shaped
  // syscall), like KVM's page_track write-protecting a whole memslot.
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  m.count(Event::kContextSwitch, 2);
  m.charge_us(2 * m.cost.ctx_switch_us);
  std::vector<Gva> present;
  kernel_.page_table(proc_).for_each_present(
      [&](Gva gva, sim::Pte&) { present.push_back(gva); });
  protect_pages(present);
}

std::vector<Gva> WpTracker::collect() {
  std::vector<Gva> out(pending_.begin(), pending_.end());
  pending_.clear();
  // Interval boundary: re-protect the harvested pages so their next write
  // faults (and re-logs) again.
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  m.count(Event::kContextSwitch, 2);
  m.charge_us(2 * m.cost.ctx_switch_us);
  protect_pages(out);
  return out;
}

void WpTracker::shutdown() {
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  sim::Ept& ept = kernel_.vm().ept();
  u64 unprotected = 0;
  for (const Gpa gpa : protected_) {
    if (sim::EptEntry* e = ept.entry(gpa); e != nullptr && !e->writable) {
      e->writable = true;
      ++unprotected;
    }
  }
  protected_.clear();
  pending_.clear();
  m.charge_ns(m.cost.dbit_clear_ns * static_cast<double>(unprotected));
  kernel_.tlb_flush_pid(proc_);
  m.count(Event::kTlbFlush);
  m.charge_us(m.cost.tlb_flush_us);
  for (unsigned cpu = 0; cpu < kernel_.vcpu_count(); ++cpu) {
    sim::WriteTrackRegistry& track = kernel_.vm().track(cpu);
    track.unregister_notifier(sim::TrackLayer::kEptDirty, this);
    track.unregister_notifier(sim::TrackLayer::kEptWpFault, this);
  }
  registered_ = false;
}

// ---- SegTracker --------------------------------------------------------------

void SegTracker::init() {
  sim::GuestPageTable& pt = kernel_.page_table(proc_);
  if (pt.backend() == sim::TranslationBackend::kSegment) return;
  // One syscall-shaped conversion pass over the whole page table (modelled
  // as a clear_refs-sized walk), then drop every cached translation: the
  // per-segment sticky flags may widen derived permissions, so stale
  // per-page entries must not survive the backend swap.
  sim::ExecContext& m = kernel_.ctx_of(proc_);
  m.count(Event::kContextSwitch, 2);
  m.charge_us(m.cost.clear_refs_us(proc_.mapped_bytes()) +
              2 * m.cost.ctx_switch_us);
  pt.convert_to_segments();
  kernel_.tlb_flush_pid(proc_);
  m.count(Event::kTlbFlush);
  m.charge_us(m.cost.tlb_flush_us);
}

void SegTracker::begin_interval() {
  kernel_.procfs().clear_refs(proc_);
}

std::vector<Gva> SegTracker::collect() {
  // Superset semantics: pagemap_dirty expands each soft-dirty segment to
  // every page it covers.
  return kernel_.procfs().pagemap_dirty(proc_);
}

// ---- OracleTracker -----------------------------------------------------------

void OracleTracker::begin_interval() {
  baseline_seq_ = proc_.truth_seq();
}

std::vector<Gva> OracleTracker::collect() {
  std::vector<Gva> out;
  for (const auto& [page, seq] : proc_.truth_dirty()) {
    if (seq > baseline_seq_) out.push_back(page);
  }
  return out;
}

// ---- factory -------------------------------------------------------------------

std::unique_ptr<Backend> make_backend(Technique t, guest::GuestKernel& kernel,
                                      guest::Process& proc, Phases& phases) {
  switch (t) {
    case Technique::kProc: return std::make_unique<ProcTracker>(kernel, proc, phases);
    case Technique::kUfd: return std::make_unique<UfdTracker>(kernel, proc, phases);
    case Technique::kSpml: return std::make_unique<SpmlTracker>(kernel, proc, phases);
    case Technique::kEpml: return std::make_unique<EpmlTracker>(kernel, proc, phases);
    case Technique::kWp: return std::make_unique<WpTracker>(kernel, proc, phases);
    case Technique::kSeg: return std::make_unique<SegTracker>(kernel, proc, phases);
    case Technique::kOracle:
      return std::make_unique<OracleTracker>(kernel, proc, phases);
    case Technique::kAdaptive: break;
  }
  throw std::invalid_argument("no backend for this technique");
}

}  // namespace ooh::lib

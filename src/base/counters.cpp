#include "base/counters.hpp"

#include <sstream>

namespace ooh {
namespace {

constexpr std::array<std::string_view, kEventCount> kNames = {
    "context_switch",
    "page_fault_demand",
    "page_fault_soft_dirty",
    "page_fault_uffd",
    "vmexit",
    "vmexit_pml_full",
    "vmexit_ept_violation",
    "spp_violation",
    "pml_log_read",
    "hypercall",
    "vmread",
    "vmwrite",
    "self_ipi",
    "pml_log_gpa",
    "pml_log_gva_guest",
    "ring_buf_copy_entry",
    "ring_buf_fetch_entry",
    "ring_buf_overflow",
    "reverse_map_lookup",
    "pagemap_scan",
    "clear_refs",
    "tlb_flush",
    "tlb_hit",
    "tlb_miss",
    "guest_pt_walk",
    "ept_walk",
    "ept_dirty_set",
    "ept_wp_fault",
    "disk_page_write",
    "uffd_write_unprotect",
    "sched_quantum",
    "tracker_collect",
    "gc_cycle",
    "migration_round",
    "migration_page_sent",
    "fault_injected",
    "self_ipi_suppressed",
    "epml_entry_lost",
    "epml_stale_entry_dropped",
    "tracker_degraded",
    "migration_send_retry",
    "migration_aborted",
    "tlb_shootdown_ipi",
    "dirty_ring_full",
    "policy_switch",
};

}  // namespace

std::string_view event_name(Event e) noexcept {
  return kNames[static_cast<std::size_t>(e)];
}

EventCounters EventCounters::diff(const EventCounters& since) const noexcept {
  EventCounters d;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    d.counts_[i] = counts_[i] - since.counts_[i];
  }
  return d;
}

std::string EventCounters::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    if (counts_[i] != 0) {
      os << kNames[i] << ": " << counts_[i] << '\n';
    }
  }
  return os.str();
}

}  // namespace ooh

// A virtual machine as the hypervisor sees it: EPT, N vCPUs (SMP guests;
// N=1 reproduces the paper's evaluation setup bit-for-bit), per-vCPU
// hypervisor PML state + dirty rings, and the kPmlDrain consumers that let
// the guest's OoH use of PML and the hypervisor's own use (live migration,
// WSS sampling) share the buffers without stepping on each other (§IV-C,
// generalized from two flags to N registered consumers).
//
// Everything that used to be one-per-VM session state (PML buffer, SPML
// ring, interval log, tracked-size hint) is one-per-vCPU: a hypercall or
// drain always operates on the session of the vCPU it arrived on, exactly
// like KVM's per-vCPU dirty rings. The EPT, SPP table and guest physical
// address space stay VM-global.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "base/page_bitmap.hpp"
#include "base/ring_buffer.hpp"
#include "base/types.hpp"
#include "hypervisor/dirty_ring.hpp"
#include "sim/ept.hpp"
#include "sim/page_track.hpp"
#include "sim/spp.hpp"
#include "sim/vcpu.hpp"

namespace ooh::hv {

class Vm;

/// kPmlDrain consumer: GPAs drained from a vCPU's PML buffer are pushed to
/// that vCPU's dirty ring for the hypervisor's own use (live-migration
/// pre-copy rounds, WSS harvests). Registered while a hypervisor logging
/// session is active — the generalization of the paper's enabled_by_hyp
/// flag. A full ring takes the loss-free spill path (Event::kDirtyRingFull),
/// which is also the kDirtyRingFull fault-injection site.
class HypDirtyLogConsumer final : public sim::PageTrackNotifier {
 public:
  explicit HypDirtyLogConsumer(Vm& vm) noexcept : vm_(vm) {}
  bool on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) override;
  void on_drain(sim::Vcpu& vcpu, std::span<const Gpa> gpas) override;

 private:
  Vm& vm_;
};

/// kPmlDrain consumer: GPAs drained from a vCPU's PML buffer are copied into
/// that vCPU's guest-shared SPML ring (and the interval log used to re-arm
/// dirty flags at the interval boundary). Registered while a guest SPML
/// session is active on that vCPU (enabled_by_guest); its per-consumer
/// enable state is the paper's guest_logging_on — set while the tracked
/// process is scheduled in.
class SpmlRingConsumer final : public sim::PageTrackNotifier {
 public:
  explicit SpmlRingConsumer(Vm& vm) noexcept : vm_(vm) {}
  bool on_track(sim::TrackLayer layer, const sim::TrackEvent& ev) override;
  void on_drain(sim::Vcpu& vcpu, std::span<const Gpa> gpas) override;

 private:
  Vm& vm_;
};

class Vm {
 public:
  Vm(sim::Machine& machine, u32 id, u64 mem_bytes, std::size_t spml_ring_entries,
     unsigned vcpus = 1);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] u32 id() const noexcept { return id_; }
  [[nodiscard]] u64 mem_bytes() const noexcept { return mem_bytes_; }
  [[nodiscard]] sim::Ept& ept() noexcept { return ept_; }

  [[nodiscard]] unsigned vcpu_count() const noexcept {
    return static_cast<unsigned>(cpus_.size());
  }
  [[nodiscard]] sim::Vcpu& vcpu(unsigned cpu) noexcept { return *cpus_[cpu]->vcpu; }
  /// Single-vCPU shorthand for vCPU 0 (the BSP). Tests and single-threaded
  /// call sites that genuinely mean "the one vCPU of an N=1 VM" keep using
  /// it; SMP-aware code indexes vcpu(i) explicitly.
  [[nodiscard]] sim::Vcpu& vcpu() noexcept { return *cpus_[0]->vcpu; }

  /// The BSP's execution context (vCPU 0's clock and counters). With one
  /// vCPU this is "the VM's timeline", the paper's evaluation setup; under
  /// SMP it is only vCPU 0's share — use vcpu(i).ctx() for the others.
  [[nodiscard]] sim::ExecContext& ctx() noexcept { return cpus_[0]->vcpu->ctx(); }

  /// vCPU 0's page-track notifier chain (shorthand; each vCPU owns its own
  /// chain — see sim/page_track.hpp).
  [[nodiscard]] sim::WriteTrackRegistry& track() noexcept {
    return cpus_[0]->vcpu->track_registry();
  }
  [[nodiscard]] sim::WriteTrackRegistry& track(unsigned cpu) noexcept {
    return cpus_[cpu]->vcpu->track_registry();
  }

  /// The ring shared between hypervisor and guest OS (SPML design), one per
  /// vCPU session. It is allocated in the guest's address space
  /// conceptually; the hypervisor only writes logged GPAs into it (§V
  /// isolation argument).
  [[nodiscard]] RingBuffer& spml_ring(unsigned cpu = 0) noexcept {
    return cpus_[cpu]->spml_ring;
  }

  /// The hypervisor's per-vCPU dirty ring: the "larger buffer" of the
  /// single-vCPU design, harvested at quiescent points.
  [[nodiscard]] DirtyRing& dirty_ring(unsigned cpu = 0) noexcept {
    return cpus_[cpu]->dirty_ring;
  }

  /// GPAs routed to the guest ring since the last SPML interval reset on
  /// this vCPU; used to re-arm their dirty flags at the interval boundary.
  [[nodiscard]] std::vector<Gpa>& spml_interval_log(unsigned cpu = 0) noexcept {
    return cpus_[cpu]->spml_interval_log;
  }

  /// Sub-page permission table (Intel SPP); consulted by the page-walk
  /// circuit for EPT entries flagged spp. VM-global like the EPT.
  [[nodiscard]] sim::SppTable& spp_table() noexcept { return spp_table_; }

  // -- kPmlDrain consumers -----------------------------------------------------
  [[nodiscard]] sim::PageTrackNotifier& hyp_drain_consumer() noexcept {
    return hyp_drain_consumer_;
  }
  [[nodiscard]] sim::PageTrackNotifier& spml_drain_consumer() noexcept {
    return spml_drain_consumer_;
  }

  // The §IV-C coexistence state, derived from the per-vCPU drain chain
  // instead of stored as bespoke two-party flags:
  //   enabled_by_hyp   == the hypervisor's consumer is registered;
  //   enabled_by_guest == the guest's SPML consumer is registered;
  //   guest_logging_on == the SPML consumer's per-consumer enable state.
  [[nodiscard]] bool pml_enabled_by_hyp(unsigned cpu = 0) noexcept {
    return track(cpu).registered(sim::TrackLayer::kPmlDrain, &hyp_drain_consumer_);
  }
  [[nodiscard]] bool pml_enabled_by_guest(unsigned cpu = 0) noexcept {
    return track(cpu).registered(sim::TrackLayer::kPmlDrain, &spml_drain_consumer_);
  }
  [[nodiscard]] bool guest_logging_on(unsigned cpu = 0) noexcept {
    return track(cpu).enabled(sim::TrackLayer::kPmlDrain, &spml_drain_consumer_);
  }

  // -- per-vCPU PML session state ---------------------------------------------
  /// Hypervisor-level 4KiB PML buffer (HPA) of vCPU `cpu`; 0 = unallocated.
  [[nodiscard]] Hpa& pml_buffer(unsigned cpu = 0) noexcept {
    return cpus_[cpu]->pml_buffer;
  }
  /// Tracked process size on this vCPU's SPML session, for M14 scaling.
  [[nodiscard]] u64& spml_tracked_mem_bytes(unsigned cpu = 0) noexcept {
    return cpus_[cpu]->spml_tracked_mem_bytes;
  }

  /// Dedup bitmap of the quiescent harvests (ring harvest, migration's
  /// carry merge, the WSS leaf walk): one bit per guest page, covering
  /// mem_bytes() and empty between uses. A harvested GPA at or beyond
  /// mem_bytes() throws std::out_of_range.
  [[nodiscard]] PageBitmap& harvest_bits() noexcept { return harvest_bits_; }

  // -- translation granularity policy -----------------------------------------
  /// When set, EPT violations back-fill 2 MiB PS-bit leaves where the
  /// region allows it (host THP-style). Off by default: the all-4 KiB
  /// configuration is the paper's evaluation setup and stays bit-identical.
  void set_ept_huge(bool on) noexcept { ept_huge_ = on; }
  [[nodiscard]] bool ept_huge() const noexcept { return ept_huge_; }

  /// When set (the default), enable_pml_for_hyp shatters every huge EPT
  /// leaf to 4 KiB before logging starts — KVM's eager page splitting — so
  /// PML reports single-page precision. Clear it to keep huge leaves and
  /// observe the 2 MiB-granular log entries instead.
  void set_eager_split(bool on) noexcept { eager_split_ = on; }
  [[nodiscard]] bool eager_split() const noexcept { return eager_split_; }

  /// True while a hypervisor logging session that eager-split is running:
  /// violations must back-fill at 4 KiB and no huge leaf may exist
  /// (invariant SPLIT-1).
  void set_eager_split_active(bool on) noexcept { eager_split_active_ = on; }
  [[nodiscard]] bool eager_split_active() const noexcept {
    return eager_split_active_;
  }

  /// Reusable buffer of vCPU `cpu`'s PML drain: the drained entries,
  /// expanded to 4 KiB GPAs, that one kPmlDrain dispatch hands over.
  [[nodiscard]] std::vector<Gpa>& drain_pages(unsigned cpu) noexcept {
    return cpus_[cpu]->drain_pages;
  }

  // -- kDirtyRingFull fault plumbing ------------------------------------------
  // A ring-full fault fired by the drain consumer settles only once the
  // in-flight PML drain resets its index; the drain loop polls this flag to
  // run the FAULT-2 audit at the right instant (see docs/invariants.md).
  void note_ring_fault(unsigned cpu) noexcept { cpus_[cpu]->ring_fault_pending = true; }
  [[nodiscard]] bool take_ring_fault(unsigned cpu) noexcept {
    const bool pending = cpus_[cpu]->ring_fault_pending;
    cpus_[cpu]->ring_fault_pending = false;
    return pending;
  }

 private:
  struct CpuState {
    explicit CpuState(std::size_t spml_ring_entries) : spml_ring(spml_ring_entries) {}
    std::unique_ptr<sim::Vcpu> vcpu;
    DirtyRing dirty_ring;
    RingBuffer spml_ring;
    std::vector<Gpa> spml_interval_log;
    std::vector<Gpa> drain_pages;
    Hpa pml_buffer = 0;
    u64 spml_tracked_mem_bytes = 0;
    bool ring_fault_pending = false;
  };

  u32 id_;
  u64 mem_bytes_;
  sim::Ept ept_;
  PageBitmap harvest_bits_;
  bool ept_huge_ = false;
  bool eager_split_ = true;
  bool eager_split_active_ = false;
  std::vector<std::unique_ptr<CpuState>> cpus_;
  sim::SppTable spp_table_;
  HypDirtyLogConsumer hyp_drain_consumer_{*this};
  SpmlRingConsumer spml_drain_consumer_{*this};
};

}  // namespace ooh::hv

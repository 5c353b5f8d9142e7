#include "sim/check/coherence.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/page_bitmap.hpp"
#include "guest/kernel.hpp"
#include "guest/process.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/vm.hpp"
#include "sim/machine.hpp"

namespace ooh::check {

namespace {

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// The in-flight entries of one PML buffer, decoded from its count-down
/// index. Legal raw index values are 0..511 (next free slot) and 0xFFFF
/// (the u16 wrap after slot 0 was filled: all 512 slots in flight); the
/// in-flight slots are [512 - count, 512).
std::vector<u64> read_in_flight(const char* index_id, Layer layer, u32 vm_id,
                                const sim::PhysicalMemory& pmem, Hpa buf,
                                u64 raw_index) {
  if (raw_index > kPmlIndexStart && raw_index != 0xFFFF) {
    throw InvariantViolation(index_id, layer, vm_id, kNoAddr, kNoAddr,
                             "PML index in [0, 511] or 0xFFFF (wrapped)",
                             "index " + hex(raw_index));
  }
  const u64 count = raw_index == 0xFFFF
                        ? kPmlBufferEntries
                        : static_cast<u64>(kPmlIndexStart) - raw_index;
  std::vector<u64> entries;
  entries.reserve(count);
  for (u64 slot = kPmlBufferEntries - count; slot < kPmlBufferEntries; ++slot) {
    entries.push_back(pmem.read_u64(buf + slot * 8));
  }
  return entries;
}

}  // namespace

void CoherenceChecker::attach_kernel(u32 vm_index, guest::GuestKernel& kernel) {
  VmState& st = state(vm_index);
  st.kernel = &kernel;
  st.clocks.resize(hypervisor_.vm(vm_index).vcpu_count(), VirtDuration{0});
}

CoherenceChecker::VmState& CoherenceChecker::state(u32 vm_index) {
  if (vms_.size() <= vm_index) vms_.resize(vm_index + 1);
  return vms_[vm_index];
}

guest::GuestKernel* CoherenceChecker::kernel_of(u32 vm_index) const noexcept {
  return vm_index < vms_.size() ? vms_[vm_index].kernel : nullptr;
}

u64 CoherenceChecker::audits_run() const noexcept {
  u64 n = 0;
  for (const VmState& st : vms_) n += st.audits;
  return n;
}

void CoherenceChecker::audit_vm(u32 vm_index) {
  hv::Vm& vm = hypervisor_.vm(vm_index);
  audit_tlb(vm);
  audit_walk_caches(vm);
  audit_guest_tables(vm);
  audit_granularity(vm);
  audit_eager_split(vm);
  audit_pml_buffers(vm);
  audit_rings(vm);
  audit_dirty_accounting(vm);
  audit_registry(vm);
  audit_policy_handoff(vm);
  audit_clock(vm);
  audit_frames(vm);
  ++state(vm_index).audits;
}

void CoherenceChecker::audit_all() {
  for (std::size_t i = 0; i < hypervisor_.vm_count(); ++i) {
    audit_vm(static_cast<u32>(i));
  }
}

// ---- TLB-* ------------------------------------------------------------------

void CoherenceChecker::audit_tlb(hv::Vm& vm) {
  guest::GuestKernel* kernel = kernel_of(vm.id());
  std::unordered_map<u32, sim::GuestPageTable*> tables;
  std::unordered_map<u32, u64> masks;  // pid -> mm_cpumask (SHOOT-1)
  if (kernel != nullptr) {
    kernel->for_each_process([&](guest::Process& p, sim::GuestPageTable& pt) {
      tables.emplace(p.pid(), &pt);
      masks.emplace(p.pid(), p.cpu_mask());
    });
  }

  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
  const sim::Tlb& tlb = vm.vcpu(cpu).tlb();
  if (tlb.size() > tlb.capacity()) {
    throw InvariantViolation(
        "TLB-4", Layer::kTlb, vm.id(), kNoAddr, kNoAddr,
        "at most " + std::to_string(tlb.capacity()) + " cached translations",
        std::to_string(tlb.size()) + " cached translations");
  }
  if (kernel == nullptr) continue;  // no guest PT to re-derive against

  tlb.for_each([&](u32 pid, Gva gva_page, const sim::TlbEntry& te) {
    // SHOOT-1: a translation may only be cached on vCPUs in the owning
    // process's mm_cpumask — an entry outside the mask would be invisible
    // to every future shootdown.
    if (const auto mit = masks.find(pid);
        mit != masks.end() && (mit->second & (u64{1} << cpu)) == 0) {
      throw InvariantViolation(
          "SHOOT-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          "cached translations only on vCPUs in pid " + std::to_string(pid) +
              "'s mm_cpumask " + hex(mit->second),
          "entry cached on vCPU " + std::to_string(cpu) + " outside the mask");
    }
    const auto it = tables.find(pid);
    if (it == tables.end()) {
      throw InvariantViolation("TLB-1", Layer::kTlb, vm.id(), gva_page,
                               te.gpa_page, "a live process owning the ASID tag",
                               "cached translation for unknown pid " +
                                   std::to_string(pid));
    }
    // A cached translation's key is the base of a gran-sized region; it
    // re-derives through the walk seam (any backend, any leaf size). The
    // cached granularity may never exceed either backing leaf: hardware
    // fills at min(guest leaf, EPT leaf), and a later split (eager page
    // splitting, munmap demand-split) must have shot the wider entry down.
    if (!is_gran_aligned(gva_page, te.gran)) {
      throw InvariantViolation(
          "TLB-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          std::string("a TLB key aligned to its cached granularity ") +
              gran_name(te.gran),
          "key " + hex(gva_page));
    }
    const sim::GuestPageTable::Lookup lu = it->second->lookup(gva_page);
    if (lu.pte == nullptr || !lu.pte->present) {
      throw InvariantViolation(
          "TLB-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          "a present guest PTE backing the cached translation",
          "no present PTE (stale entry survived an unmap)");
    }
    if (te.gran > lu.gran) {
      throw InvariantViolation(
          "TLB-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          std::string("cached granularity <= the guest leaf's ") +
              gran_name(lu.gran),
          std::string("cached ") + gran_name(te.gran) +
              " entry outlived a leaf split");
    }
    if (te.gpa_page != lu.gpa_page) {
      throw InvariantViolation("TLB-1", Layer::kTlb, vm.id(), gva_page,
                               te.gpa_page,
                               "cached GPA == walked GPA " + hex(lu.gpa_page),
                               "cached GPA " + hex(te.gpa_page));
    }
    const sim::Pte* pte = lu.pte;
    const sim::Ept::Lookup elu = vm.ept().lookup(te.gpa_page);
    if (elu.entry == nullptr || !elu.entry->present) {
      throw InvariantViolation(
          "TLB-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          "a present EPT entry backing the cached translation",
          "no present EPT entry (stale entry survived an EPT unmap)");
    }
    if (te.gran > elu.gran) {
      throw InvariantViolation(
          "TLB-1", Layer::kTlb, vm.id(), gva_page, te.gpa_page,
          std::string("cached granularity <= the EPT leaf's ") +
              gran_name(elu.gran),
          std::string("cached ") + gran_name(te.gran) +
              " entry outlived an EPT leaf split");
    }
    if (te.hpa_page != elu.hpa_page) {
      throw InvariantViolation("TLB-1", Layer::kTlb, vm.id(), gva_page,
                               te.gpa_page,
                               "cached HPA == EPT-walked HPA " + hex(elu.hpa_page),
                               "cached HPA " + hex(te.hpa_page));
    }
    const sim::EptEntry* epte = elu.entry;
    // Permission/dirty checks are directional: a cached entry may be *more*
    // restrictive than the tables (stale-conservative is harmless; the next
    // write re-walks), but never more permissive — a cached writable+dirty
    // entry lets stores skip the walk, so if the tables disagree, writes
    // bypass dirty logging. That is the OoH-fatal direction.
    const bool derivable_writable =
        pte->writable && !pte->uffd_wp && epte->writable && !epte->spp;
    if (te.writable && !derivable_writable) {
      throw InvariantViolation(
          "TLB-2", Layer::kTlb, vm.id(), gva_page, pte->gpa_page,
          "cached write permission re-derivable from guest PTE + EPT "
          "(pte.writable && !pte.uffd_wp && epte.writable && !epte.spp)",
          "cached writable=1 but the tables deny writes");
    }
    const bool derivable_dirty = pte->dirty && epte->dirty;
    if (te.dirty && !derivable_dirty) {
      throw InvariantViolation(
          "TLB-3", Layer::kTlb, vm.id(), gva_page, pte->gpa_page,
          "cached dirty state re-derivable (pte.dirty && epte.dirty)",
          std::string("cached dirty=1 but pte.dirty=") +
              (pte->dirty ? "1" : "0") + " epte.dirty=" +
              (epte->dirty ? "1" : "0"));
    }
  });
  }
}

// ---- WALK-1 -----------------------------------------------------------------

void CoherenceChecker::audit_walk_caches(hv::Vm& vm) {
  // The MRU walk cache memoises only the leaf-table pointer chase; flags are
  // re-read through the leaf on every walk. The memo must therefore always
  // agree with a fresh top-down walk of the same region — a skewed memo
  // would route accesses through the wrong leaf, silently detaching walks
  // from the PTEs that dirty logging observes.
  if (!vm.ept().walk_cache_coherent()) {
    throw InvariantViolation(
        "WALK-1", Layer::kEpt, vm.id(), kNoAddr, kNoAddr,
        "EPT walk-cache memo re-derivable by a fresh top-down walk",
        "memoised leaf disagrees with the radix walk");
  }
  guest::GuestKernel* kernel = kernel_of(vm.id());
  if (kernel == nullptr) return;
  kernel->for_each_process([&](guest::Process& p, sim::GuestPageTable& pt) {
    if (!pt.walk_cache_coherent()) {
      throw InvariantViolation(
          "WALK-1", Layer::kGuestPageTable, vm.id(), kNoAddr, kNoAddr,
          "guest PT walk-cache memo re-derivable by a fresh top-down walk "
          "(pid " + std::to_string(p.pid()) + ")",
          "memoised leaf disagrees with the radix walk");
    }
  });
}

// ---- PML-* / EPML-* ---------------------------------------------------------

void CoherenceChecker::audit_pml_buffers(hv::Vm& vm) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
  sim::Vcpu& vcpu = vm.vcpu(cpu);
  const sim::Vmcs& vmcs = vcpu.vmcs();

  const Hpa buf = vmcs.read(sim::VmcsField::kPmlAddress);
  if (buf != vm.pml_buffer(cpu)) {
    throw InvariantViolation("PML-4", Layer::kPmlBuffer, vm.id(), kNoAddr,
                             kNoAddr,
                             "VMCS PML_ADDRESS == vCPU " + std::to_string(cpu) +
                                 "'s recorded buffer " + hex(vm.pml_buffer(cpu)),
                             "VMCS PML_ADDRESS " + hex(buf));
  }
  if (buf != 0) {
    if (!is_page_aligned(buf) || !vm.pmem().owns(page_index(buf))) {
      throw InvariantViolation("PML-4", Layer::kPmlBuffer, vm.id(), kNoAddr,
                               kNoAddr,
                               "a page-aligned PML buffer frame in the VM's partition",
                               "buffer HPA " + hex(buf));
    }
    const std::vector<u64> entries =
        read_in_flight("PML-1", Layer::kPmlBuffer, vm.id(), vm.pmem(), buf,
                       vmcs.read(sim::VmcsField::kPmlIndex));
    std::unordered_set<u64> seen;
    for (const u64 e : entries) {
      // Entries carry the mapped granularity in their low bits; the base
      // must be aligned to that granularity and the whole region in bounds
      // (an all-4K configuration decodes gran code 0, i.e. the old check).
      const Gpa base = pml_entry_base(e);
      const PageGran g = pml_entry_gran(e);
      if (!is_gran_aligned(base, g) ||
          base + gran_size(g) > vm.mem_bytes()) {
        throw InvariantViolation(
            "PML-2", Layer::kPmlBuffer, vm.id(), kNoAddr, e,
            std::string("a ") + gran_name(g) +
                "-aligned GPA region within the VM's " + hex(vm.mem_bytes()) +
                "-byte guest-physical space",
            "logged entry " + hex(e));
      }
      if (!seen.insert(e).second) {
        throw InvariantViolation(
            "PML-3", Layer::kPmlBuffer, vm.id(), kNoAddr, e,
            "each in-flight GPA logged at most once "
            "(the dirty flag stays set until the drain boundary)",
            "duplicate in-flight entry " + hex(e));
      }
    }
  }

  // EPML: the guest-level buffer named by the shadow VMCS.
  const bool guest_pml_ctl = vmcs.control(sim::kEnableGuestPml);
  const sim::Vmcs* shadow = vcpu.shadow_vmcs();
  if (guest_pml_ctl && shadow == nullptr) {
    throw InvariantViolation("EPML-3", Layer::kEpmlBuffer, vm.id(), kNoAddr,
                             kNoAddr,
                             "a linked shadow VMCS while ENABLE_GUEST_PML is set",
                             "no shadow VMCS");
  }
  if (shadow == nullptr) continue;
  const Hpa gbuf = shadow->read(sim::VmcsField::kGuestPmlAddress);
  if (gbuf == 0) continue;
  // The stored address is the EPT-translated HPA of a guest-owned frame, so
  // it must still be backed by a present EPT mapping of this VM.
  bool backed = is_page_aligned(gbuf);
  if (backed) {
    backed = false;
    vm.ept().for_each_present([&](Gpa, sim::EptEntry& e) {
      if (e.hpa_page == gbuf) backed = true;
    });
  }
  if (!backed) {
    throw InvariantViolation(
        "EPML-4", Layer::kEpmlBuffer, vm.id(), kNoAddr, kNoAddr,
        "a page-aligned guest PML buffer HPA backed by a present EPT mapping",
        "buffer HPA " + hex(gbuf));
  }
  const std::vector<u64> gentries =
      read_in_flight("EPML-1", Layer::kEpmlBuffer, vm.id(), vm.pmem(), gbuf,
                     shadow->read(sim::VmcsField::kGuestPmlIndex));
  for (const u64 e : gentries) {
    // Guest-level entries are gran-tagged GVAs (same encoding as the
    // hypervisor buffer; code 0 = 4K keeps the legacy check).
    if (!is_gran_aligned(pml_entry_base(e), pml_entry_gran(e))) {
      throw InvariantViolation(
          "EPML-2", Layer::kEpmlBuffer, vm.id(), e, kNoAddr,
          std::string("a ") + gran_name(pml_entry_gran(e)) +
              "-aligned logged GVA",
          "logged entry " + hex(e));
    }
  }
  }
}

// ---- ACC-* ------------------------------------------------------------------

void CoherenceChecker::audit_dirty_accounting(hv::Vm& vm) {
  // Accounting is only a closed system while the hypervisor is the sole
  // kPmlDrain consumer on every vCPU: SPML coexistence deliberately
  // multi-routes drained GPAs and gates logging off while the tracked
  // process is scheduled out, so flags legally outrun any single consumer's
  // records there.
  bool wss = false;
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (!vm.pml_enabled_by_hyp(cpu) || vm.pml_enabled_by_guest(cpu)) return;
    if (vm.pml_buffer(cpu) == 0) return;
    // Under the read-logging extension (WSS sampling) the logged transition
    // is the accessed flag; dirty transitions deliberately do not re-log.
    if (vm.vcpu(cpu).vmcs().control(sim::kEnablePmlReadLog)) wss = true;
  }

  // One consumer-record set across all vCPUs: in-flight buffer slots, ring
  // pending entries and spill logs.
  std::unordered_set<Gpa> log;
  std::unordered_set<Gpa> buffered_all;
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    const sim::Vmcs& vmcs = vm.vcpu(cpu).vmcs();
    const std::vector<u64> entries =
        read_in_flight("PML-1", Layer::kPmlBuffer, vm.id(), vm.pmem(),
                       vm.pml_buffer(cpu), vmcs.read(sim::VmcsField::kPmlIndex));
    // Expand gran-tagged in-flight entries to every 4K page they cover:
    // the drain side does the same expansion, so the accounting closes
    // page-granularly whatever the logged leaf size was.
    std::unordered_set<Gpa> buffered;
    for (const u64 raw : entries) {
      const Gpa b = pml_entry_base(raw);
      const PageGran g = pml_entry_gran(raw);
      for (u64 i = 0; i < gran_pages(g); ++i) buffered.insert(b + i * kPageSize);
    }
    const hv::DirtyRing& ring = vm.dirty_ring(cpu);
    std::unordered_set<Gpa> drained;
    ring.for_each_pending([&](u64 gpa) { drained.insert(gpa); });
    for (const u64 gpa : ring.spill_log()) drained.insert(gpa);
    for (const Gpa gpa : buffered) {
      if (drained.count(gpa) != 0) {
        throw InvariantViolation(
            "ACC-2", Layer::kDirtyLog, vm.id(), kNoAddr, gpa,
            "each logged GPA accounted for by exactly one consumer stage",
            "GPA both in-flight in vCPU " + std::to_string(cpu) +
                "'s PML buffer and in its drained dirty ring");
      }
    }
    buffered_all.insert(buffered.begin(), buffered.end());
    log.insert(drained.begin(), drained.end());
  }

  const char* flag_name = wss ? "accessed" : "dirty";
  vm.ept().for_each_present([&](Gpa gpa, sim::EptEntry& e) {
    const bool flagged = wss ? e.accessed : e.dirty;
    if (flagged && buffered_all.count(gpa) == 0 && log.count(gpa) == 0) {
      throw InvariantViolation(
          "ACC-1", Layer::kEpt, vm.id(), kNoAddr, gpa,
          std::string("every set EPT ") + flag_name +
              " flag accounted for by a consumer "
              "(in-flight PML buffer or drained dirty ring)",
          std::string("EPT ") + flag_name + " flag set with no consumer record");
    }
  });
}

// ---- RING-1 -----------------------------------------------------------------

void CoherenceChecker::audit_rings(hv::Vm& vm) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    const hv::DirtyRing& ring = vm.dirty_ring(cpu);
    if (!ring.bounds_ok()) {
      throw InvariantViolation(
          "RING-1", Layer::kDirtyLog, vm.id(), kNoAddr, kNoAddr,
          "vCPU " + std::to_string(cpu) + "'s dirty ring with popped <= " +
              "pushed and pushed - popped <= capacity " +
              std::to_string(ring.capacity()),
          "pushed " + std::to_string(ring.pushed()) + ", popped " +
              std::to_string(ring.popped()));
    }
    ring.for_each_pending([&](u64 gpa) {
      if (!is_page_aligned(gpa) || gpa >= vm.mem_bytes()) {
        throw InvariantViolation(
            "RING-1", Layer::kDirtyLog, vm.id(), kNoAddr, gpa,
            "ring entries 4K-aligned GPAs within the VM's " +
                hex(vm.mem_bytes()) + "-byte guest-physical space",
            "pending entry " + hex(gpa));
      }
    });
    for (const u64 gpa : ring.spill_log()) {
      if (!is_page_aligned(gpa) || gpa >= vm.mem_bytes()) {
        throw InvariantViolation(
            "RING-1", Layer::kDirtyLog, vm.id(), kNoAddr, gpa,
            "spill entries 4K-aligned GPAs within the VM's " +
                hex(vm.mem_bytes()) + "-byte guest-physical space",
            "spill entry " + hex(gpa));
      }
    }
  }
}

// ---- PT-* -------------------------------------------------------------------

void CoherenceChecker::audit_guest_tables(hv::Vm& vm) {
  guest::GuestKernel* kernel = kernel_of(vm.id());
  if (kernel == nullptr) return;
  std::unordered_map<Gpa, std::pair<u32, Gva>> owner;  // gpa -> first owner
  // The per-4K view computes the translated GPA per page, so one huge leaf
  // (or segment) claims each of its guest frames individually — frame
  // exclusivity stays a page-granular statement across every backend.
  kernel->for_each_process([&](guest::Process& p, sim::GuestPageTable& pt) {
    pt.for_each_mapping([&](Gva gva_page, const sim::Pte&, Gpa gpa) {
      if (!is_page_aligned(gpa) || gpa >= vm.mem_bytes()) {
        throw InvariantViolation(
            "PT-1", Layer::kGuestPageTable, vm.id(), gva_page, gpa,
            "a 4K-aligned GPA within the VM's " + hex(vm.mem_bytes()) +
                "-byte guest-physical space",
            "page translates to " + hex(gpa));
      }
      const auto [it, fresh] = owner.try_emplace(gpa, p.pid(), gva_page);
      if (!fresh) {
        throw InvariantViolation(
            "PT-2", Layer::kGuestPageTable, vm.id(), gva_page, gpa,
            "each guest frame owned by at most one present mapping (first "
            "owner: pid " + std::to_string(it->second.first) + " gva " +
                hex(it->second.second) + ")",
            "also mapped by pid " + std::to_string(p.pid()) + " gva " +
                hex(gva_page));
      }
    });
  });
}

// ---- GRAN-1 / SPLIT-1 -------------------------------------------------------

namespace {

/// GRAN-1 core: present leaves, viewed as [base, base+size) intervals, must
/// tile without overlap. Same-size radix leaves occupy distinct slots by
/// construction, so any overlap is a cross-granularity double cover — one
/// page with two independent dirty flags.
void check_leaf_exclusivity(std::vector<std::pair<u64, u64>>& leaves,
                            Layer layer, u32 vm_id, const std::string& where) {
  std::sort(leaves.begin(), leaves.end());
  u64 prev_end = 0;
  u64 prev_base = 0;
  for (const auto& [base, end] : leaves) {
    if (base < prev_end) {
      throw InvariantViolation(
          "GRAN-1", layer, vm_id, kNoAddr, base,
          "each page of " + where + " covered by at most one present leaf",
          "leaf at " + hex(base) + " overlaps the leaf at " + hex(prev_base));
    }
    prev_base = base;
    prev_end = end;
  }
}

}  // namespace

void CoherenceChecker::audit_granularity(hv::Vm& vm) {
  std::vector<std::pair<u64, u64>> leaves;
  vm.ept().for_each_leaf_present([&](Gpa base, sim::EptEntry&, PageGran g) {
    leaves.emplace_back(base, base + gran_size(g));
  });
  check_leaf_exclusivity(leaves, Layer::kEpt, vm.id(), "the EPT");

  guest::GuestKernel* kernel = kernel_of(vm.id());
  if (kernel == nullptr) return;
  kernel->for_each_process([&](guest::Process& p, sim::GuestPageTable& pt) {
    if (pt.backend() == sim::TranslationBackend::kSegment) {
      // Segment form of the same statement: sorted, non-overlapping runs
      // whose shared Pte mirrors the run base.
      if (!pt.segment_table()->coherent()) {
        throw InvariantViolation(
            "GRAN-1", Layer::kGuestPageTable, vm.id(), kNoAddr, kNoAddr,
            "pid " + std::to_string(p.pid()) +
                "'s segments sorted, non-overlapping and internally "
                "consistent",
            "segment table fails its coherence sweep");
      }
      return;
    }
    leaves.clear();
    pt.for_each_leaf_present([&](Gva base, sim::Pte&, PageGran g) {
      leaves.emplace_back(base, base + gran_size(g));
    });
    check_leaf_exclusivity(leaves, Layer::kGuestPageTable, vm.id(),
                           "pid " + std::to_string(p.pid()) +
                               "'s address space");
  });
}

void CoherenceChecker::audit_eager_split(hv::Vm& vm) {
  // While an eager-split logging session runs, every EPT leaf is 4 KiB:
  // each dirty-flag transition names exactly one page, so the ACC-* closure
  // audited above is page-precise for the whole session (SPLIT-1).
  if (!vm.eager_split_active()) return;
  if (const u64 huge = vm.ept().huge_leaves(); huge != 0) {
    throw InvariantViolation(
        "SPLIT-1", Layer::kEpt, vm.id(), kNoAddr, kNoAddr,
        "no PS-bit EPT leaves while an eager-split logging session is active",
        std::to_string(huge) + " huge leaves present");
  }
}

// ---- REG-* ------------------------------------------------------------------

void CoherenceChecker::audit_registry(hv::Vm& vm) {
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
  const sim::Vcpu& vcpu = vm.vcpu(cpu);
  const sim::WriteTrackRegistry& reg = vcpu.track_registry();
  for (std::size_t li = 0; li < sim::kTrackLayerCount; ++li) {
    const auto layer = static_cast<sim::TrackLayer>(li);
    const u64 dispatched = reg.events_dispatched(layer);
    std::unordered_set<const sim::PageTrackNotifier*> seen;
    std::vector<const sim::PageTrackNotifier*> order;
    reg.for_each_registration(
        layer, [&](const sim::PageTrackNotifier* n, bool, u64 delivered) {
          const std::string where(sim::track_layer_name(layer));
          if (n == nullptr) {
            throw InvariantViolation("REG-1", Layer::kNotifierChain, vm.id(),
                                     kNoAddr, kNoAddr,
                                     "no null notifier on layer " + where,
                                     "null registration");
          }
          if (!seen.insert(n).second) {
            throw InvariantViolation(
                "REG-1", Layer::kNotifierChain, vm.id(), kNoAddr, kNoAddr,
                "each notifier registered at most once on layer " + where,
                "duplicate registration (double-dispatch)");
          }
          order.push_back(n);
          if (delivered > dispatched) {
            throw InvariantViolation(
                "REG-3", Layer::kNotifierChain, vm.id(), kNoAddr, kNoAddr,
                "per-consumer deliveries <= " + std::to_string(dispatched) +
                    " events dispatched on layer " + where,
                std::to_string(delivered) + " deliveries");
          }
        });
    // The permanent hardware circuits must head their chains: software
    // consumers added later observe events only after the hardware logged
    // them, as on a real machine.
    const sim::PageTrackNotifier* expected_head = nullptr;
    if (layer == sim::TrackLayer::kGuestPtDirty) {
      expected_head = vcpu.guest_pml_circuit();
    } else if (layer == sim::TrackLayer::kEptDirty ||
               layer == sim::TrackLayer::kEptAccessed) {
      expected_head = vcpu.hyp_pml_circuit();
    }
    if (expected_head != nullptr &&
        (order.empty() || order.front() != expected_head)) {
      throw InvariantViolation(
          "REG-2", Layer::kNotifierChain, vm.id(), kNoAddr, kNoAddr,
          std::string("the hardware PML circuit first in the ") +
              std::string(sim::track_layer_name(layer)) + " chain",
          order.empty() ? "empty chain" : "another notifier heads the chain");
    }
  }
  std::unordered_set<const sim::PageTrackNotifier*> flush_seen;
  reg.for_each_flush([&](const sim::PageTrackNotifier* n) {
    if (n == nullptr) {
      throw InvariantViolation("REG-1", Layer::kNotifierChain, vm.id(), kNoAddr,
                               kNoAddr, "no null notifier on the flush chain",
                               "null registration");
    }
    if (!flush_seen.insert(n).second) {
      throw InvariantViolation(
          "REG-1", Layer::kNotifierChain, vm.id(), kNoAddr, kNoAddr,
          "each notifier registered at most once on the flush chain",
          "duplicate registration");
    }
  });
  }
}

// ---- POL-* ------------------------------------------------------------------

void CoherenceChecker::audit_policy_handoff(hv::Vm& vm) {
  // POL-1: write-protected EPT entries must be claimed by a live handler.
  // A wp-style tracking session clears `writable` on the pages it watches
  // and owns a kEptWpFault notifier that services the resulting faults. A
  // policy-driven handoff away from that backend must restore writability
  // before the handler unregisters: an orphaned protection would make the
  // next write to the page an *unhandled* WP fault (the dispatch throws),
  // and the write's dirty transition would never reach the new backend —
  // exactly the lost-page hazard the switch protocol promises away. SPP
  // entries are exempt: their write mediation lives in the SPP table, not
  // a notifier chain.
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (vm.vcpu(cpu).track_registry().notifier_count(
            sim::TrackLayer::kEptWpFault) != 0) {
      return;  // a WP session is live; its protections are owned.
    }
  }
  vm.ept().for_each_leaf_present([&](Gpa base, sim::EptEntry& e, PageGran g) {
    if (!e.writable && !e.spp) {
      throw InvariantViolation(
          "POL-1", Layer::kEpt, vm.id(), kNoAddr, base,
          "no write-protected EPT entry outlives its kEptWpFault handler",
          std::string("orphaned write protection on a present ") +
              gran_name(g) + " leaf");
    }
  });
}

// ---- CLK-* ------------------------------------------------------------------

void CoherenceChecker::audit_clock(hv::Vm& vm) {
  std::vector<VirtDuration>& snaps = state(vm.id()).clocks;
  if (snaps.size() < vm.vcpu_count()) {
    snaps.resize(vm.vcpu_count(), VirtDuration{0});
  }
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    const VirtDuration now = vm.vcpu(cpu).ctx().clock.now();
    VirtDuration& last = snaps[cpu];
    if (now < VirtDuration{0} || now < last) {
      throw InvariantViolation(
          "CLK-1", Layer::kClock, vm.id(), kNoAddr, kNoAddr,
          "vCPU " + std::to_string(cpu) +
              "'s virtual time monotone (last audit saw " +
              std::to_string(to_us(last)) + " us)",
          std::to_string(to_us(now)) + " us");
    }
    last = now;
  }
}

// ---- FRAME-* ----------------------------------------------------------------

void CoherenceChecker::audit_frames(hv::Vm& vm) {
  // One bit per frame of the VM's partition, set as EPT mappings and PML
  // buffers claim it.
  const sim::PhysicalMemory& pmem = vm.pmem();
  const u64 first = pmem.first_frame();
  const u64 host = machine_.host_frames();
  PageBitmap claimed((pmem.end_frame() - first) * kPageSize);
  u64 claims = 0;
  const auto claim = [&](Gpa gpa, Hpa hpa, const char* what) {
    const u64 fn = page_index(hpa);
    if (hpa == 0 || !is_page_aligned(hpa) || fn >= host) {
      throw InvariantViolation(
          "FRAME-3", Layer::kFrameAllocator, vm.id(), kNoAddr, gpa,
          std::string(what) + " naming a page-aligned frame in (0, " +
              hex(host * kPageSize) + ")",
          "HPA " + hex(hpa));
    }
    if (!pmem.owns(fn)) {
      throw InvariantViolation(
          "FRAME-1", Layer::kFrameAllocator, vm.id(), kNoAddr, gpa,
          "exclusive frame ownership (every claimed frame in the VM's partition [" +
              hex(first * kPageSize) + ", " + hex(pmem.end_frame() * kPageSize) +
              "))",
          std::string("this ") + what + " names frame " + hex(hpa) +
              " of another partition");
    }
    if (!claimed.test_and_set((fn - first) * kPageSize)) {
      throw InvariantViolation(
          "FRAME-1", Layer::kFrameAllocator, vm.id(), kNoAddr, gpa,
          "exclusive frame ownership (frame " + hex(hpa) + " claimed once)",
          std::string("also claimed by this ") + what);
    }
    ++claims;
  };
  // Per-4K view: a huge leaf claims each frame of its contiguous HPA run
  // individually, so exclusivity and the used-frames reconciliation stay
  // page-granular.
  vm.ept().for_each_mapping([&](Gpa gpa, const sim::EptEntry&, Hpa hpa, PageGran) {
    claim(gpa, hpa, "EPT mapping");
  });
  for (unsigned cpu = 0; cpu < vm.vcpu_count(); ++cpu) {
    if (vm.pml_buffer(cpu) != 0) claim(kNoAddr, vm.pml_buffer(cpu), "PML buffer");
  }
  const u64 used = pmem.used_frames();
  if (claims != used) {
    const char* direction =
        used > claims ? " (leaked frames)" : " (double-accounted frames)";
    throw InvariantViolation(
        "FRAME-2", Layer::kFrameAllocator, vm.id(), kNoAddr, kNoAddr,
        "partition used_frames == " + std::to_string(claims) +
            " frames accounted for by EPT mappings + PML buffers",
        std::to_string(used) + " frames allocated" + direction);
  }
  // FRAME-4: materialised contents are accounted for. Every backed frame is
  // claimed by an owner above; contents nothing claims are orphaned bytes
  // nothing can legitimately reach (a stale write path, or a free that kept
  // the frame's backing).
  for (const u64 fn : pmem.backed_frame_table()) {
    if (claimed.test((fn - first) * kPageSize)) continue;
    throw InvariantViolation(
        "FRAME-4", Layer::kFrameAllocator, vm.id(), kNoAddr, kNoAddr,
        "backed frame " + hex(fn << kPageShift) +
            " owned by an EPT mapping or PML buffer",
        "contents materialised but unclaimed");
  }
}

}  // namespace ooh::check

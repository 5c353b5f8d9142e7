// Hardware-level tests of the PML logging circuit, VMCS shadowing rules and
// the EPML extensions, using fake exit/IRQ handlers so the mechanisms are
// observed in isolation from the hypervisor and guest kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/ept.hpp"
#include "sim/mmu.hpp"
#include "sim/page_table.hpp"
#include "sim/vcpu.hpp"

namespace ooh::sim {
namespace {

/// Test double: records exits, drains buffers the way the hypervisor must.
class FakeHandler final : public VmExitHandler, public GuestIrqSink {
 public:
  explicit FakeHandler(PhysicalMemory& pmem) : pmem_(pmem) {}

  void on_pml_full(Vcpu& vcpu) override {
    ++pml_full;
    Vmcs& v = vcpu.vmcs();
    const Hpa buf = v.read(VmcsField::kPmlAddress);
    for (u64 slot = 0; slot < kPmlBufferEntries; ++slot) {
      drained_gpas.push_back(pmem_.read_u64(buf + slot * 8));
    }
    v.write(VmcsField::kPmlIndex, kPmlIndexStart);
  }

  void on_ept_violation(Vcpu& vcpu, Gpa gpa, bool) override {
    ++ept_violations;
    vcpu.ept()->map(page_floor(gpa), pmem_.alloc_frame());
  }

  u64 on_hypercall(Vcpu&, Hypercall, u64, u64) override {
    ++hypercalls;
    return 0;
  }

  void on_guest_pml_full(Vcpu& vcpu) override {
    ++self_ipis;
    Vmcs& shadow = *vcpu.shadow_vmcs();
    const Hpa buf = shadow.read(VmcsField::kGuestPmlAddress);
    for (u64 slot = 0; slot < kPmlBufferEntries; ++slot) {
      drained_gvas.push_back(pmem_.read_u64(buf + slot * 8));
    }
    shadow.write(VmcsField::kGuestPmlIndex, kPmlIndexStart);
  }

  PhysicalMemory& pmem_;
  int pml_full = 0;
  int ept_violations = 0;
  int hypercalls = 0;
  int self_ipis = 0;
  std::vector<Gpa> drained_gpas;
  std::vector<Gva> drained_gvas;
};

class PmlCircuitTest : public ::testing::Test {
 protected:
  PmlCircuitTest()
      : pmem_(64 * kMiB),
        vcpu_(cost_, pmem_, 0),
        handler_(pmem_),
        mmu_(vcpu_, ept_) {
    vcpu_.attach(&handler_, &handler_, &ept_);
  }

  /// Identity-map `pages` guest pages at gva_base, backed by fresh frames.
  void map_range(Gva gva_base, u64 pages) {
    for (u64 i = 0; i < pages; ++i) {
      const Gpa gpa = gpa_next_;
      gpa_next_ += kPageSize;
      pt_.map(gva_base + i * kPageSize, gpa, /*writable=*/true);
      ept_.map(gpa, pmem_.alloc_frame());
    }
  }

  void enable_hyp_pml() {
    pml_buf_ = pmem_.alloc_frame();
    vcpu_.vmcs().write(VmcsField::kPmlAddress, pml_buf_);
    vcpu_.vmcs().write(VmcsField::kPmlIndex, kPmlIndexStart);
    vcpu_.vmcs().set_control(kEnablePml, true);
  }

  void enable_guest_pml() {
    vcpu_.vmcs().set_control(kEnableVmcsShadowing, true);
    vcpu_.vmcs().set_control(kEnableGuestPml, true);
    for (const VmcsField f : {VmcsField::kGuestPmlAddress, VmcsField::kGuestPmlIndex,
                              VmcsField::kGuestPmlEnable}) {
      vcpu_.shadow_readable().add(f);
      vcpu_.shadow_writable().add(f);
    }
    Vmcs& shadow = vcpu_.create_shadow_vmcs();
    guest_buf_gpa_ = gpa_next_;
    gpa_next_ += kPageSize;
    ept_.map(guest_buf_gpa_, pmem_.alloc_frame());
    shadow.write(VmcsField::kGuestPmlIndex, kPmlIndexStart);
    vcpu_.guest_vmwrite(VmcsField::kGuestPmlAddress, guest_buf_gpa_);
    vcpu_.guest_vmwrite(VmcsField::kGuestPmlEnable, 1);
  }

  void write(Gva gva) {
    const Mmu::Result r = mmu_.access(1, pt_, gva, /*is_write=*/true);
    ASSERT_EQ(r.status, Mmu::Status::kOk);
  }

  const CostModel cost_ = CostModel::unit();
  PhysicalMemory pmem_;
  Vcpu vcpu_;
  FakeHandler handler_;
  Ept ept_;
  GuestPageTable pt_;
  Mmu mmu_;
  Hpa pml_buf_ = 0;
  Gpa guest_buf_gpa_ = 0;
  Gpa gpa_next_ = kPageSize;
};

TEST_F(PmlCircuitTest, LogsGpaOnEptDirtyTransitionOnly) {
  map_range(0x10000, 4);
  enable_hyp_pml();
  write(0x10000);
  write(0x10000);  // second write: dirty already set, no new log
  write(0x11000);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 2u);
  // Index counted down from 511 by two.
  EXPECT_EQ(vcpu_.vmcs().read(VmcsField::kPmlIndex), u64{kPmlIndexStart - 2});
  // Logged entries are at slots 511 and 510.
  const Gpa logged0 = pmem_.read_u64(pml_buf_ + 511 * 8);
  const Gpa logged1 = pmem_.read_u64(pml_buf_ + 510 * 8);
  EXPECT_EQ(logged0, pt_.pte(0x10000)->gpa_page);
  EXPECT_EQ(logged1, pt_.pte(0x11000)->gpa_page);
}

TEST_F(PmlCircuitTest, ReadsNeverLog) {
  map_range(0x10000, 2);
  enable_hyp_pml();
  const Mmu::Result r = mmu_.access(1, pt_, 0x10000, /*is_write=*/false);
  EXPECT_EQ(r.status, Mmu::Status::kOk);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 0u);
  EXPECT_FALSE(pt_.pte(0x10000)->dirty);
}

TEST_F(PmlCircuitTest, BufferFullRaisesVmExitAndContinues) {
  map_range(0x100000, 600);
  enable_hyp_pml();
  for (u64 i = 0; i < 600; ++i) write(0x100000 + i * kPageSize);
  // 512 entries fill the buffer; the 512th write lands its entry and then
  // raises the full exit (eager semantics — see PmlFullExitFiresOnExactly512thWrite).
  EXPECT_EQ(handler_.pml_full, 1);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kVmExitPmlFull), 1u);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 600u);
  EXPECT_EQ(handler_.drained_gpas.size(), kPmlBufferEntries);
}

// Exact-boundary regression (the off-by-one this fixes): hardware raises the
// page-modification-log-full exit when the write that consumes the LAST free
// slot retires — not lazily on the first write after the buffer wrapped. A
// guest that stops writing at exactly 512 dirtied pages must still see its
// buffer drained.
TEST_F(PmlCircuitTest, PmlFullExitFiresOnExactly512thWrite) {
  map_range(0x100000, kPmlBufferEntries);
  enable_hyp_pml();
  for (u64 i = 0; i < kPmlBufferEntries - 1; ++i) write(0x100000 + i * kPageSize);
  EXPECT_EQ(handler_.pml_full, 0) << "511 entries leave one free slot: no exit yet";
  EXPECT_EQ(vcpu_.vmcs().read(VmcsField::kPmlIndex), 0u);
  write(0x100000 + (kPmlBufferEntries - 1) * kPageSize);  // the 512th entry
  EXPECT_EQ(handler_.pml_full, 1) << "exit must fire when the 512th entry lands";
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kVmExitPmlFull), 1u);
  EXPECT_EQ(handler_.drained_gpas.size(), kPmlBufferEntries);
  // The 512th write's GPA is in the drained set (slot 0), and the handler's
  // index reset leaves the buffer ready for the next interval.
  EXPECT_EQ(handler_.drained_gpas[0],
            pt_.pte(0x100000 + (kPmlBufferEntries - 1) * kPageSize)->gpa_page);
  EXPECT_EQ(vcpu_.vmcs().read(VmcsField::kPmlIndex), u64{kPmlIndexStart});
}

// Same boundary for the guest-level (EPML) buffer: the self-IPI posts when
// the 512th GVA lands, so a guest dirtying exactly one buffer's worth of
// pages gets its drain without needing a 513th write.
TEST_F(PmlCircuitTest, EpmlSelfIpiFiresOnExactly512thWrite) {
  map_range(0x200000, kPmlBufferEntries);
  enable_guest_pml();
  for (u64 i = 0; i < kPmlBufferEntries - 1; ++i) write(0x200000 + i * kPageSize);
  EXPECT_EQ(handler_.self_ipis, 0) << "511 entries leave one free slot: no IPI yet";
  write(0x200000 + (kPmlBufferEntries - 1) * kPageSize);  // the 512th entry
  EXPECT_EQ(handler_.self_ipis, 1) << "self-IPI must post when the 512th entry lands";
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kSelfIpi), 1u);
  EXPECT_EQ(handler_.drained_gvas.size(), kPmlBufferEntries);
  EXPECT_EQ(handler_.drained_gvas[0], 0x200000u + (kPmlBufferEntries - 1) * kPageSize);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kVmExit), 0u)
      << "EPML's boundary handling must stay exit-free";
}

TEST_F(PmlCircuitTest, DisabledPmlLogsNothing) {
  map_range(0x10000, 8);
  for (u64 i = 0; i < 8; ++i) write(0x10000 + i * kPageSize);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 0u);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kEptDirtySet), 8u) << "dirty still set";
}

TEST_F(PmlCircuitTest, GuestPmlLogsGvaAndRaisesSelfIpi) {
  map_range(0x200000, 600);
  enable_guest_pml();
  for (u64 i = 0; i < 600; ++i) write(0x200000 + i * kPageSize);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGvaGuest), 600u);
  EXPECT_EQ(handler_.self_ipis, 1);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kSelfIpi), 1u);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kVmExit), 0u)
      << "EPML guest buffer handling must not exit to the hypervisor";
  // The guest-level buffer received GVAs, not GPAs. Logging starts at slot
  // 511 and counts down, so the first logged GVA is the last drained.
  EXPECT_EQ(handler_.drained_gvas.back(), 0x200000u);
}

TEST_F(PmlCircuitTest, DualLoggingFillsBothBuffers) {
  map_range(0x300000, 10);
  enable_hyp_pml();
  enable_guest_pml();
  for (u64 i = 0; i < 10; ++i) write(0x300000 + i * kPageSize);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 10u);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGvaGuest), 10u);
  // Hypervisor buffer holds GPAs, guest buffer holds GVAs (paper §IV-D).
  const Gpa hyp_entry = pmem_.read_u64(pml_buf_ + 511 * 8);
  Hpa guest_buf_hpa = 0;
  ASSERT_TRUE(ept_.translate(guest_buf_gpa_, guest_buf_hpa));
  const Gva guest_entry = pmem_.read_u64(guest_buf_hpa + 511 * 8);
  EXPECT_EQ(hyp_entry, pt_.pte(0x300000)->gpa_page);
  EXPECT_EQ(guest_entry, 0x300000u);
}

TEST_F(PmlCircuitTest, TlbCachedDirtyWriteSkipsLogging) {
  map_range(0x10000, 1);
  enable_hyp_pml();
  write(0x10000);
  const u64 misses = vcpu_.ctx().counters.get(Event::kTlbMiss);
  write(0x10000);  // served from the TLB: no walk, no log
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kTlbMiss), misses);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kTlbHit), 1u);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 1u);
}

TEST_F(PmlCircuitTest, ClearedDirtyFlagRearmsLogging) {
  map_range(0x10000, 1);
  enable_hyp_pml();
  write(0x10000);
  // Harvest: clear the EPT dirty flag and invalidate, as the hypervisor does.
  ept_.entry(pt_.pte(0x10000)->gpa_page)->dirty = false;
  vcpu_.tlb().flush_all();
  write(0x10000);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kPmlLogGpa), 2u);
}

TEST_F(PmlCircuitTest, EptViolationBackfillsAndRetries) {
  pt_.map(0x50000, 0x8000, true);  // no EPT mapping for 0x8000 yet
  write(0x50000);
  EXPECT_EQ(handler_.ept_violations, 1);
  EXPECT_EQ(vcpu_.ctx().counters.get(Event::kVmExitEptViolation), 1u);
  Hpa hpa = 0;
  EXPECT_TRUE(ept_.translate(0x8000, hpa));
}

TEST_F(PmlCircuitTest, FaultsReportedNotHandled) {
  // Unmapped GVA.
  EXPECT_EQ(mmu_.access(1, pt_, 0xdead000, true).status, Mmu::Status::kFaultNotPresent);
  // Read-only PTE.
  pt_.map(0x60000, 0x9000, /*writable=*/false);
  ept_.map(0x9000, pmem_.alloc_frame());
  EXPECT_EQ(mmu_.access(1, pt_, 0x60000, true).status, Mmu::Status::kFaultNotWritable);
  EXPECT_EQ(mmu_.access(1, pt_, 0x60000, false).status, Mmu::Status::kOk)
      << "reads through RO mappings succeed";
  // uffd-wp PTE.
  pt_.map(0x70000, 0xa000, /*writable=*/true);
  pt_.pte(0x70000)->uffd_wp = true;
  ept_.map(0xa000, pmem_.alloc_frame());
  EXPECT_EQ(mmu_.access(1, pt_, 0x70000, true).status, Mmu::Status::kFaultNotWritable);
}

// ---- VMCS / vCPU instruction rules ------------------------------------------------

TEST(VmcsTest, ControlBitsSetAndClear) {
  Vmcs v;
  EXPECT_FALSE(v.control(kEnablePml));
  v.set_control(kEnablePml, true);
  v.set_control(kEnableGuestPml, true);
  EXPECT_TRUE(v.control(kEnablePml));
  v.set_control(kEnablePml, false);
  EXPECT_FALSE(v.control(kEnablePml));
  EXPECT_TRUE(v.control(kEnableGuestPml));
}

TEST(VcpuTest, GuestVmreadRequiresShadowing) {
  const CostModel cost = CostModel::unit();
  PhysicalMemory pmem(16 * kMiB);
  Vcpu vcpu(cost, pmem, 0);
  EXPECT_THROW((void)vcpu.guest_vmread(VmcsField::kGuestPmlIndex), std::logic_error);
  EXPECT_THROW(vcpu.guest_vmwrite(VmcsField::kGuestPmlEnable, 1), std::logic_error);
}

TEST(VcpuTest, GuestAccessLimitedToPermissionBitmaps) {
  const CostModel cost = CostModel::unit();
  PhysicalMemory pmem(16 * kMiB);
  Vcpu vcpu(cost, pmem, 0);
  Ept ept;
  vcpu.attach(nullptr, nullptr, &ept);
  vcpu.vmcs().set_control(kEnableVmcsShadowing, true);
  (void)vcpu.create_shadow_vmcs();
  vcpu.shadow_readable().add(VmcsField::kGuestPmlIndex);
  // Readable but not writable; everything else inaccessible.
  EXPECT_NO_THROW((void)vcpu.guest_vmread(VmcsField::kGuestPmlIndex));
  EXPECT_THROW(vcpu.guest_vmwrite(VmcsField::kGuestPmlIndex, 1), std::logic_error);
  EXPECT_THROW((void)vcpu.guest_vmread(VmcsField::kPmlAddress), std::logic_error)
      << "the hypervisor-level PML buffer address must stay hidden";
  EXPECT_THROW(vcpu.guest_vmwrite(VmcsField::kSecondaryControls, 0), std::logic_error)
      << "the guest must not rewrite execution controls";
}

TEST(VcpuTest, EpmlVmwriteTranslatesGpaThroughEpt) {
  const CostModel cost = CostModel::unit();
  PhysicalMemory pmem(16 * kMiB);
  Vcpu vcpu(cost, pmem, 0);
  Ept ept;
  vcpu.attach(nullptr, nullptr, &ept);
  vcpu.vmcs().set_control(kEnableVmcsShadowing, true);
  Vmcs& shadow = vcpu.create_shadow_vmcs();
  for (const VmcsField f : {VmcsField::kGuestPmlAddress, VmcsField::kGuestPmlIndex,
                            VmcsField::kGuestPmlEnable}) {
    vcpu.shadow_readable().add(f);
    vcpu.shadow_writable().add(f);
  }
  const Gpa gpa = 0x7000;
  const Hpa hpa = pmem.alloc_frame();
  ept.map(gpa, hpa);
  vcpu.guest_vmwrite(VmcsField::kGuestPmlAddress, gpa);
  EXPECT_EQ(shadow.read(VmcsField::kGuestPmlAddress), hpa)
      << "the stored value must be the translated HPA (paper's ISA change)";
  // Unmapped GPA is rejected.
  EXPECT_THROW(vcpu.guest_vmwrite(VmcsField::kGuestPmlAddress, 0xFF000), std::runtime_error);
  // Other fields pass through untranslated.
  vcpu.guest_vmwrite(VmcsField::kGuestPmlEnable, 1);
  EXPECT_EQ(vcpu.guest_vmread(VmcsField::kGuestPmlEnable), 1u);
  EXPECT_EQ(vcpu.ctx().counters.get(Event::kVmwrite), 3u);
  EXPECT_EQ(vcpu.ctx().counters.get(Event::kVmread), 1u);
}

TEST(VcpuTest, HypercallTransitionsModes) {
  const CostModel cost = CostModel::unit();
  PhysicalMemory pmem(16 * kMiB);
  Vcpu vcpu(cost, pmem, 0);
  struct Handler final : VmExitHandler {
    CpuMode seen = CpuMode::kVmxNonRoot;
    void on_pml_full(Vcpu&) override {}
    void on_ept_violation(Vcpu&, Gpa, bool) override {}
    u64 on_hypercall(Vcpu& v, Hypercall, u64 a0, u64) override {
      seen = v.mode();
      return a0 + 1;
    }
  } handler;
  Ept ept;
  vcpu.attach(&handler, nullptr, &ept);
  EXPECT_EQ(vcpu.hypercall(Hypercall::kOohInitPml, 41), 42u);
  EXPECT_EQ(handler.seen, CpuMode::kVmxRoot) << "handler runs in VMX root mode";
  EXPECT_EQ(vcpu.mode(), CpuMode::kVmxNonRoot) << "vCPU resumes non-root";
  EXPECT_EQ(vcpu.ctx().counters.get(Event::kHypercall), 1u);
  EXPECT_EQ(vcpu.ctx().counters.get(Event::kVmExit), 1u);
}

}  // namespace
}  // namespace ooh::sim

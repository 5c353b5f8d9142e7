// Hypervisor tests: VM lifecycle, hypercall semantics, guest/hypervisor PML
// coexistence (the enabled_by_guest / enabled_by_hyp flags of §IV-C), and
// pre-copy live migration.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hypervisor/hypervisor.hpp"
#include "hypervisor/migration.hpp"
#include "sim/machine.hpp"
#include "sim/mmu.hpp"
#include "sim/page_table.hpp"

namespace ooh::hv {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : machine_(256 * kMiB, CostModel::unit()), hv_(machine_) {}

  /// A bare-metal guest surrogate: page table + MMU writes, no guest kernel.
  struct MiniGuest {
    MiniGuest(Vm& vm) : vm_(vm), mmu_(vm.vcpu(), vm.ept()) {}
    void map(Gva gva, Gpa gpa) { pt_.map(gva, gpa, true); }
    void write(Gva gva) {
      ASSERT_EQ(mmu_.access(1, pt_, gva, true).status, sim::Mmu::Status::kOk);
    }
    Vm& vm_;
    sim::GuestPageTable pt_;
    sim::Mmu mmu_;
  };

  sim::Machine machine_;
  Hypervisor hv_;
};

TEST_F(HypervisorTest, CreateVmWiresVcpu) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  EXPECT_EQ(vm.id(), 0u);
  EXPECT_EQ(vm.vcpu().exits(), &hv_);
  EXPECT_EQ(vm.vcpu().ept(), &vm.ept());
  Vm& vm2 = hv_.create_vm(64 * kMiB);
  EXPECT_EQ(vm2.id(), 1u);
  EXPECT_EQ(hv_.vm_count(), 2u);
}

TEST_F(HypervisorTest, EptViolationAllocatesHostFrame) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 0x4000);
  const u64 used_before = vm.pmem().used_frames();
  g.write(0x10000);
  EXPECT_EQ(vm.pmem().used_frames(), used_before + 1);
  Hpa hpa = 0;
  EXPECT_TRUE(vm.ept().translate(0x4000, hpa));
}

TEST_F(HypervisorTest, EachVmAllocatesFromItsOwnWindow) {
  Vm& a = hv_.create_vm(1 * kMiB, 1u << 10, /*vcpus=*/2);
  Vm& b = hv_.create_vm(2 * kMiB);
  // One frame per guest page plus one PML buffer per vCPU, carved in
  // creation order after the reserved frame 0.
  EXPECT_EQ(a.pmem().first_frame(), 1u);
  EXPECT_EQ(a.pmem().end_frame(), 1u + 256 + 2);
  EXPECT_EQ(b.pmem().first_frame(), a.pmem().end_frame());
  EXPECT_EQ(b.pmem().end_frame(), b.pmem().first_frame() + 512 + 1);
  MiniGuest g(b);
  g.map(0x10000, 0x4000);
  g.write(0x10000);
  Hpa hpa = 0;
  ASSERT_TRUE(b.ept().translate(0x4000, hpa));
  EXPECT_TRUE(b.pmem().owns(page_index(hpa)));
  EXPECT_EQ(a.pmem().used_frames(), 0u);
}

TEST_F(HypervisorTest, FreeingAnotherVmsFrameThrows) {
  Vm& a = hv_.create_vm(1 * kMiB);
  Vm& b = hv_.create_vm(1 * kMiB);
  MiniGuest g(b);
  g.map(0x10000, 0x4000);
  g.write(0x10000);
  Hpa theirs = 0;
  ASSERT_TRUE(b.ept().translate(0x4000, theirs));
  // A stray HPA (say, one another VM's EPT names) must not enter this VM's
  // free list, where a later allocation would hand it out a second time.
  EXPECT_THROW(a.pmem().free_frame(theirs), std::logic_error);
  EXPECT_EQ(a.pmem().used_frames(), 0u);
  EXPECT_EQ(b.pmem().used_frames(), 1u);
  EXPECT_THROW(a.pmem().free_frame(machine_.host_frames() << kPageShift), std::logic_error);
}

TEST_F(HypervisorTest, EptViolationBeyondVmMemoryThrows) {
  Vm& vm = hv_.create_vm(1 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 64 * kMiB);  // GPA beyond the 1MiB VM
  EXPECT_THROW(
      { (void)g.mmu_.access(1, g.pt_, 0x10000, true); }, std::runtime_error);
}

TEST_F(HypervisorTest, SpmlHypercallFlowRoutesGpasToRing) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  for (int i = 0; i < 8; ++i) g.map(0x10000 + i * kPageSize, 0x4000 + i * kPageSize);

  sim::Vcpu& vcpu = vm.vcpu();
  vcpu.hypercall(sim::Hypercall::kOohInitPml, 8 * kPageSize);
  EXPECT_TRUE(vm.pml_enabled_by_guest());
  EXPECT_FALSE(vcpu.vmcs().control(sim::kEnablePml)) << "init does not start logging";

  vcpu.hypercall(sim::Hypercall::kOohEnableLogging);
  EXPECT_TRUE(vcpu.vmcs().control(sim::kEnablePml));
  for (int i = 0; i < 8; ++i) g.write(0x10000 + i * kPageSize);

  vcpu.hypercall(sim::Hypercall::kOohDisableLogging, 8 * kPageSize);
  EXPECT_FALSE(vcpu.vmcs().control(sim::kEnablePml));
  EXPECT_EQ(vm.spml_ring().size(), 8u);
  const std::vector<u64> gpas = vm.spml_ring().drain();
  EXPECT_EQ(gpas.front(), 0x4000u);

  vcpu.hypercall(sim::Hypercall::kOohDeactivatePml);
  EXPECT_FALSE(vm.pml_enabled_by_guest());
}

TEST_F(HypervisorTest, EnableLoggingWithoutInitFails) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  EXPECT_EQ(vm.vcpu().hypercall(sim::Hypercall::kOohEnableLogging), u64(-1));
  EXPECT_FALSE(vm.vcpu().vmcs().control(sim::kEnablePml));
}

TEST_F(HypervisorTest, CoexistenceBothConsumersGetDirtyPages) {
  // §IV-C item 3: guest SPML session and hypervisor migration logging run
  // simultaneously on one PML buffer; routing respects both flags.
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  for (int i = 0; i < 4; ++i) g.map(0x10000 + i * kPageSize, 0x4000 + i * kPageSize);

  hv_.enable_pml_for_hyp(vm);
  vm.vcpu().hypercall(sim::Hypercall::kOohInitPml, 4 * kPageSize);
  vm.vcpu().hypercall(sim::Hypercall::kOohEnableLogging);

  for (int i = 0; i < 4; ++i) g.write(0x10000 + i * kPageSize);
  vm.vcpu().hypercall(sim::Hypercall::kOohDisableLogging, 4 * kPageSize);

  EXPECT_EQ(vm.spml_ring().size(), 4u) << "guest ring got the GPAs";
  // PML stays armed for the hypervisor even after the guest disables.
  EXPECT_TRUE(vm.vcpu().vmcs().control(sim::kEnablePml));
  const std::vector<Gpa> harvested = hv_.harvest_hyp_dirty(vm);
  EXPECT_EQ(harvested.size(), 4u) << "hypervisor log got the same GPAs";
}

TEST_F(HypervisorTest, GuestOnlyLoggingDoesNotFillHypervisorLog) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 0x4000);
  vm.vcpu().hypercall(sim::Hypercall::kOohInitPml, kPageSize);
  vm.vcpu().hypercall(sim::Hypercall::kOohEnableLogging);
  g.write(0x10000);
  vm.vcpu().hypercall(sim::Hypercall::kOohDisableLogging, kPageSize);
  EXPECT_TRUE(vm.dirty_ring().empty());
  EXPECT_EQ(vm.dirty_ring().spill_size(), 0u);
}

TEST_F(HypervisorTest, HypOnlyLoggingDoesNotFillGuestRing) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 0x4000);
  hv_.enable_pml_for_hyp(vm);
  g.write(0x10000);
  EXPECT_EQ(hv_.harvest_hyp_dirty(vm).size(), 1u);
  EXPECT_TRUE(vm.spml_ring().empty());
}

TEST_F(HypervisorTest, IntervalResetRearmsLogging) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 0x4000);
  vm.vcpu().hypercall(sim::Hypercall::kOohInitPml, kPageSize);
  vm.vcpu().hypercall(sim::Hypercall::kOohEnableLogging);
  g.write(0x10000);
  vm.vcpu().hypercall(sim::Hypercall::kOohDisableLogging, kPageSize);
  EXPECT_EQ(vm.spml_ring().drain().size(), 1u);

  // Without a reset, a re-write would not re-log (dirty flag still set).
  vm.vcpu().hypercall(sim::Hypercall::kOohIntervalReset);
  vm.vcpu().hypercall(sim::Hypercall::kOohEnableLogging);
  g.write(0x10000);
  vm.vcpu().hypercall(sim::Hypercall::kOohDisableLogging, kPageSize);
  EXPECT_EQ(vm.spml_ring().drain().size(), 1u) << "page re-logged after reset";
}

TEST_F(HypervisorTest, HarvestResetsDirtySoNextRoundRelogs) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  g.map(0x10000, 0x4000);
  hv_.enable_pml_for_hyp(vm);
  g.write(0x10000);
  EXPECT_EQ(hv_.harvest_hyp_dirty(vm).size(), 1u);
  EXPECT_EQ(hv_.harvest_hyp_dirty(vm).size(), 0u) << "no new writes, no new dirt";
  g.write(0x10000);
  EXPECT_EQ(hv_.harvest_hyp_dirty(vm).size(), 1u);
}

TEST_F(HypervisorTest, MigrationConvergesOnIdleGuest) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  for (int i = 0; i < 32; ++i) g.map(0x10000 + i * kPageSize, 0x4000 + i * kPageSize);
  for (int i = 0; i < 32; ++i) g.write(0x10000 + i * kPageSize);

  MigrationEngine engine(hv_);
  int quanta = 0;
  const MigrationReport rep = engine.migrate(vm, [&] {
    // Guest dirties a shrinking set each round, then goes idle.
    if (quanta < 2) {
      for (int i = 0; i < 8 >> quanta; ++i) g.write(0x10000 + i * kPageSize);
    }
    ++quanta;
  });
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.initial_pages, 32u);
  EXPECT_GT(rep.pages_sent, rep.initial_pages) << "pre-copy resent dirty pages";
  EXPECT_LE(rep.downtime.count(), rep.total_time.count());
  EXPECT_FALSE(vm.pml_enabled_by_hyp()) << "migration tears its PML use down";
}

TEST_F(HypervisorTest, MigrationForcedStopCopyOnHotGuest) {
  Vm& vm = hv_.create_vm(64 * kMiB);
  MiniGuest g(vm);
  const int pages = 256;
  for (int i = 0; i < pages; ++i) g.map(0x10000 + i * kPageSize, 0x4000 + i * kPageSize);
  for (int i = 0; i < pages; ++i) g.write(0x10000 + i * kPageSize);

  MigrationEngine engine(hv_);
  MigrationOptions opts;
  opts.max_rounds = 3;
  opts.stop_copy_threshold_pages = 4;
  const MigrationReport rep = engine.migrate(
      vm,
      [&] {  // rewrites everything every round: never converges
        for (int i = 0; i < pages; ++i) g.write(0x10000 + i * kPageSize);
      },
      opts);
  EXPECT_FALSE(rep.converged);
  // max_rounds pre-copy rounds plus the forced stop-and-copy, which runs a
  // full harvest/drain/send round of its own and is counted as one.
  EXPECT_EQ(rep.rounds, 4u);
  EXPECT_EQ(rep.stop_copy_pages, static_cast<u64>(pages));
}

// ---- quiescent ring harvest -------------------------------------------------

TEST(Hypervisor, HarvestIsDeduplicatedInFirstSeenOrder) {
  sim::Machine machine(256 * kMiB, CostModel::unit());
  Hypervisor hv(machine);
  Vm& vm = hv.create_vm(64 * kMiB, 1u << 10, /*vcpus=*/2);
  const auto page = [](u64 n) { return n * kPageSize; };
  for (const u64 n : {9, 3, 9, 7}) ASSERT_TRUE(vm.dirty_ring(0).try_push(page(n)));
  for (const u64 n : {5, 3, 1, 5}) ASSERT_TRUE(vm.dirty_ring(1).try_push(page(n)));
  vm.dirty_ring(0).spill(page(4));
  vm.dirty_ring(1).spill(page(2));

  // Ring 0 in event order, then ring 1, then vCPU 0's spills, then vCPU 1's;
  // each page once, where it was first seen.
  EXPECT_EQ(hv.harvest_hyp_dirty(vm),
            (std::vector<Gpa>{page(9), page(3), page(7), page(5), page(1), page(4),
                              page(2)}));

  // The dedup state does not leak into the next harvest.
  for (const u64 n : {3, 9}) ASSERT_TRUE(vm.dirty_ring(1).try_push(page(n)));
  EXPECT_EQ(hv.harvest_hyp_dirty(vm), (std::vector<Gpa>{page(3), page(9)}));
  EXPECT_TRUE(vm.harvest_bits().none());
}

TEST(Hypervisor, HarvestRejectsGpaBeyondVmMemory) {
  sim::Machine machine(256 * kMiB, CostModel::unit());
  Hypervisor hv(machine);
  Vm& vm = hv.create_vm(64 * kMiB, 1u << 10, /*vcpus=*/2);
  ASSERT_TRUE(vm.dirty_ring(0).try_push(kPageSize));
  ASSERT_TRUE(vm.dirty_ring(1).try_push(vm.mem_bytes()));
  EXPECT_THROW((void)hv.harvest_hyp_dirty(vm), std::out_of_range);
  EXPECT_TRUE(vm.harvest_bits().none()) << "a failed harvest left bits behind";

  ASSERT_TRUE(vm.dirty_ring(0).try_push(kPageSize));
  EXPECT_EQ(hv.harvest_hyp_dirty(vm), (std::vector<Gpa>{kPageSize}));
}

}  // namespace
}  // namespace ooh::hv

// Security & isolation properties (paper §V):
//   * the guest never sees host physical addresses (SPML logs GPAs, EPML
//     logs GVAs),
//   * per-guest rings: one VM's tracking session never observes another's,
//   * per-process rings: a tracked process's addresses are not visible to
//     other tracked processes (the reviewer-feedback fix),
//   * the guest cannot target memory outside its VM through OoH hypercalls.
#include <gtest/gtest.h>

#include <algorithm>

#include "guest/ooh_module.hpp"
#include "hypervisor/hypervisor.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"

namespace ooh {
namespace {

TEST(Security, SpmlRingCarriesGpasNotHpas) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  // Skew host frame numbers away from guest frame numbers so a leaked HPA
  // would be distinguishable by value (on a fresh machine both count up
  // from the same base).
  for (int i = 0; i < 64; ++i) (void)bed.vm().pmem().alloc_frame();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  guest::OohModule& mod = k.load_ooh_module(guest::OohMode::kSpml);
  mod.track(proc);
  k.scheduler().enter_process(proc.pid());
  for (int i = 0; i < 8; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());

  // Collect the HPAs actually backing the process's pages, and its GPAs.
  std::set<Hpa> hpas;
  std::set<Gpa> gpas;
  k.page_table(proc).for_each_present([&](Gva, sim::Pte& pte) {
    gpas.insert(pte.gpa_page);
    Hpa hpa = 0;
    ASSERT_TRUE(bed.vm().ept().translate(pte.gpa_page, hpa));
    hpas.insert(page_floor(hpa));
  });
  for (const u64 entry : mod.fetch(proc)) {
    EXPECT_TRUE(gpas.contains(entry)) << "entries are the process's GPAs";
    EXPECT_FALSE(hpas.contains(entry))
        << "ring leaked a host physical address to the guest";
    EXPECT_LT(entry, bed.vm().mem_bytes()) << "entries are guest-physical";
  }
  mod.untrack(proc);
}

TEST(Security, EpmlRingCarriesGvas) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(4 * kPageSize);
  guest::OohModule& mod = k.load_ooh_module(guest::OohMode::kEpml);
  mod.track(proc);
  k.scheduler().enter_process(proc.pid());
  for (int i = 0; i < 4; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  for (const u64 entry : mod.fetch(proc)) {
    EXPECT_NE(proc.vma_of(entry), nullptr)
        << "EPML entries are the process's own virtual addresses";
  }
  mod.untrack(proc);
}

TEST(Security, TenantVmsTrackIndependently) {
  lib::TestBedOptions opts;
  opts.tenant_vms = 2;
  lib::TestBed bed(opts);
  auto& k0 = bed.kernel(0);
  auto& k1 = bed.kernel(1);
  auto& p0 = k0.create_process();
  auto& p1 = k1.create_process();
  const Gva b0 = p0.mmap(4 * kPageSize);
  const Gva b1 = p1.mmap(6 * kPageSize);

  auto t0 = lib::make_tracker(lib::Technique::kSpml, k0, p0);
  auto t1 = lib::make_tracker(lib::Technique::kSpml, k1, p1);
  t0->init();
  t1->init();
  t0->begin_interval();
  t1->begin_interval();

  k0.scheduler().enter_process(p0.pid());
  for (int i = 0; i < 4; ++i) p0.touch_write(b0 + i * kPageSize);
  k0.scheduler().exit_process(p0.pid());
  k1.scheduler().enter_process(p1.pid());
  for (int i = 0; i < 6; ++i) p1.touch_write(b1 + i * kPageSize);
  k1.scheduler().exit_process(p1.pid());

  EXPECT_EQ(t0->collect().size(), 4u);
  EXPECT_EQ(t1->collect().size(), 6u);
  t0->shutdown();
  t1->shutdown();
}

TEST(Security, UntrackedProcessWritesNeverReachAnotherRing) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& victim = k.create_process();
  auto& spy = k.create_process();
  const Gva vb = victim.mmap(8 * kPageSize);
  const Gva sb = spy.mmap(8 * kPageSize);

  guest::OohModule& mod = k.load_ooh_module(guest::OohMode::kEpml);
  mod.track(spy);  // the spy tracks itself, hoping to see the victim

  k.scheduler().enter_process(victim.pid());
  for (int i = 0; i < 8; ++i) victim.touch_write(vb + i * kPageSize);
  k.scheduler().exit_process(victim.pid());
  k.scheduler().enter_process(spy.pid());
  spy.touch_write(sb);
  k.scheduler().exit_process(spy.pid());

  const std::vector<u64> got = mod.fetch(spy);
  EXPECT_EQ(got, std::vector<u64>{sb})
      << "the spy's ring must contain only its own accesses (§V)";
  mod.untrack(spy);
}

TEST(Security, SppHypercallRejectsGpaBeyondVm) {
  lib::TestBed bed;
  auto& vm = bed.vm();
  const u64 ret =
      vm.vcpu().hypercall(sim::Hypercall::kOohSppProtect, vm.mem_bytes() + kPageSize, 0);
  EXPECT_EQ(ret, u64(-1)) << "SPP masks outside the VM's memory are rejected";
}

TEST(Security, HypervisorDirtyLogNotExposedThroughGuestRing) {
  // Live-migration logging (enabled_by_hyp) must not spill GPAs into a
  // guest ring that has no active SPML session.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  bed.hypervisor().enable_pml_for_hyp(bed.vm());
  for (int i = 0; i < 8; ++i) proc.touch_write(base + i * kPageSize);
  EXPECT_EQ(bed.hypervisor().harvest_hyp_dirty(bed.vm()).size(), 8u);
  EXPECT_TRUE(bed.vm().spml_ring().empty());
  bed.hypervisor().disable_pml_for_hyp(bed.vm());
}

TEST(Security, DeactivationOrderingRespectsTheOtherSide) {
  // §IV-C item 3: the guest deactivating its session must leave the
  // hypervisor's logging armed, and vice versa.
  lib::TestBed bed;
  auto& k = bed.kernel();
  auto& proc = k.create_process();
  (void)proc.mmap(kPageSize);
  bed.hypervisor().enable_pml_for_hyp(bed.vm());
  auto tracker = lib::make_tracker(lib::Technique::kSpml, k, proc);
  tracker->init();
  tracker->shutdown();  // guest side gone
  EXPECT_TRUE(bed.vm().pml_enabled_by_hyp());
  EXPECT_TRUE(bed.vm().vcpu().vmcs().control(sim::kEnablePml))
      << "hypervisor logging survives guest deactivation";
  bed.hypervisor().disable_pml_for_hyp(bed.vm());
  EXPECT_FALSE(bed.vm().vcpu().vmcs().control(sim::kEnablePml));
}

}  // namespace
}  // namespace ooh

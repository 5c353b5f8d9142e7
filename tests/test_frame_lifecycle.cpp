// Frame-lifecycle leak tests: run a write-heavy workload under each of the
// six dirty-tracking backends, then tear the tracked process down (tracker
// shutdown + munmap of every VMA) and let the coherence oracle's
// frame-ownership audit prove that every host frame the run allocated is
// either still owned by a live mapping (PML buffers, other tenants) or was
// returned to the allocator — no leaks, no double frees, across all
// backends including the ones that allocate hypervisor-side buffers
// (SPML/EPML) or flip EPT permissions (wp).
#include <gtest/gtest.h>

#include "guest/kernel.hpp"
#include "hypervisor/hypervisor.hpp"
#include "ooh/experiment.hpp"
#include "ooh/tracker.hpp"
#include "sim/check/coherence.hpp"
#include "sim/machine.hpp"

namespace ooh {
namespace {

class FrameLifecycleTest : public ::testing::TestWithParam<lib::Technique> {
 protected:
  FrameLifecycleTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(64 * kMiB)),
        kernel_(hv_, vm_),
        checker_(machine_, hv_) {
    checker_.attach_kernel(vm_.id(), kernel_);
  }

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  guest::GuestKernel kernel_;
  check::CoherenceChecker checker_;
};

TEST_P(FrameLifecycleTest, TeardownLeavesNoOrphanFrames) {
  const u64 frames_at_start = vm_.pmem().used_frames();

  guest::Process& proc = kernel_.create_process();
  const Gva base = proc.mmap(64 * kPageSize);
  auto tracker = lib::make_tracker(GetParam(), kernel_, proc);
  const lib::RunResult res = lib::run_tracked(
      kernel_, proc,
      [&](guest::Process& p) {
        for (unsigned pass = 0; pass < 3; ++pass) {
          for (u64 i = 0; i < 64; ++i) p.touch_write(base + i * kPageSize);
        }
      },
      tracker.get(), {});
  EXPECT_EQ(res.capture_ratio(), 1.0) << "backend missed dirty pages";

  // Teardown: tracker first (releases WP/uffd registrations, ends PML
  // sessions), then every VMA of the tracked process.
  tracker->shutdown();
  while (!proc.vmas().empty()) proc.munmap(proc.vmas().front().start);
  EXPECT_EQ(proc.mapped_bytes(), 0u);

  // The ownership audit re-derives every owner (EPT mappings + PML
  // buffers) and cross-checks the allocator: a frame freed twice or never
  // freed fails here with FRAME-1/FRAME-2.
  EXPECT_NO_THROW(checker_.audit_frames(vm_));
  EXPECT_NO_THROW(checker_.audit_vm(vm_.id()));

  // Everything the workload touched was handed back; only buffers that
  // outlive the process (e.g. a hypervisor PML buffer page) may remain.
  EXPECT_LE(vm_.pmem().used_frames(), frames_at_start + 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FrameLifecycleTest,
                         ::testing::Values(lib::Technique::kProc,
                                           lib::Technique::kUfd,
                                           lib::Technique::kSpml,
                                           lib::Technique::kEpml,
                                           lib::Technique::kWp,
                                           lib::Technique::kOracle),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case lib::Technique::kProc: return "proc";
                             case lib::Technique::kUfd: return "ufd";
                             case lib::Technique::kSpml: return "spml";
                             case lib::Technique::kEpml: return "epml";
                             case lib::Technique::kWp: return "wp";
                             case lib::Technique::kOracle: return "oracle";
                             case lib::Technique::kSeg: return "seg";
                             case lib::Technique::kAdaptive: return "adaptive";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace ooh

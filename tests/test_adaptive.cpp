// Adaptive tracking control plane (src/ooh/adaptive): WSS/dirty-rate
// estimation, policy-driven runtime backend switching, and the handoff
// contract — no dirty page is lost across a switch (POL-1's software half),
// and same-seed adaptive runs replay bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <vector>

#include "base/counters.hpp"
#include "ooh/adaptive/policy.hpp"
#include "ooh/adaptive/wss_estimator.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"

namespace ooh::lib {
namespace {

// ---- WssEstimator: property sweep over synthetic dirty rates ----------------

TEST(WssEstimator, TracksConstantSyntheticRatesWithinTolerance) {
  TestBed bed;
  sim::ExecContext& ctx = bed.ctx();
  const double window_ms = 5.0;
  for (const u64 pages_per_window : {u64{1}, u64{10}, u64{100}, u64{1000}}) {
    const double rate = static_cast<double>(pages_per_window) / window_ms;
    WssEstimator est(0.5);
    VirtDuration now = msecs(100);
    est.begin_window(7, now);
    std::vector<Gva> pages(pages_per_window);
    for (int w = 0; w < 8; ++w) {
      for (u64 i = 0; i < pages_per_window; ++i) {
        pages[i] = (0x1000 + i) * kPageSize;
      }
      now += msecs(window_ms);
      est.note_interval(7, pages, now, ctx);
    }
    const WssSignal& sig = est.signal(7);
    EXPECT_EQ(sig.windows, 8u);
    EXPECT_EQ(sig.last_window_pages, pages_per_window);
    // An EWMA of a constant is that constant, to float precision.
    EXPECT_NEAR(sig.dirty_rate, rate, rate * 1e-9);
    EXPECT_NEAR(sig.wss_pages, static_cast<double>(pages_per_window), 1e-6);
  }
}

TEST(WssEstimator, EwmaDecaysGeometricallyWhenThePhaseGoesCold) {
  TestBed bed;
  sim::ExecContext& ctx = bed.ctx();
  WssEstimator est(0.5);
  VirtDuration now = msecs(10);
  est.begin_window(3, now);
  std::vector<Gva> hot(100);
  for (u64 i = 0; i < hot.size(); ++i) hot[i] = (0x2000 + i) * kPageSize;
  for (int w = 0; w < 4; ++w) {
    now += msecs(1.0);
    est.note_interval(3, hot, now, ctx);  // 100 pages/ms
  }
  EXPECT_NEAR(est.signal(3).dirty_rate, 100.0, 1e-6);
  double prev = est.signal(3).dirty_rate;
  for (int w = 0; w < 12; ++w) {
    now += msecs(1.0);
    est.note_interval(3, {}, now, ctx);  // cold: zero dirty pages
    const double cur = est.signal(3).dirty_rate;
    EXPECT_NEAR(cur, prev * 0.5, 1e-9) << "alpha=0.5: the rate halves per window";
    prev = cur;
  }
  EXPECT_LT(est.signal(3).dirty_rate, 0.05)
      << "12 cold windows cross the default cold threshold";
}

TEST(WssEstimator, IngestsHarvestWssSamplesAsTheVmWideSignal) {
  // The hypervisor-side feed: harvest_wss's GPA sample closes the pid-0
  // (VM-wide) window.
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(64 * kPageSize);
  for (u64 i = 0; i < 64; ++i) proc.touch_write(base + i * kPageSize);

  hv::Hypervisor& hv = bed.hypervisor();
  hv.enable_wss_sampling(bed.vm());
  WssEstimator est(0.5);
  est.begin_window(0, bed.ctx().clock.now());
  for (u64 i = 0; i < 20; ++i) proc.touch_read(base + i * kPageSize);
  const std::vector<Gpa> sample = hv.harvest_wss(bed.vm());
  est.ingest_sample(sample, bed.ctx().clock.now(), bed.ctx());
  hv.disable_wss_sampling(bed.vm());

  EXPECT_EQ(sample.size(), 20u);
  EXPECT_EQ(est.signal().windows, 1u);
  EXPECT_EQ(est.signal().last_window_pages, 20u);
  EXPECT_GT(est.signal().dirty_rate, 0.0);
}

TEST(WssEstimator, ChargesItsUpdateCostToTheCallersTimeline) {
  TestBedOptions o;
  o.cost.wss_estimator_update_ns = 100.0;
  TestBed bed(o);
  sim::ExecContext& ctx = bed.ctx();
  WssEstimator est(0.5);
  est.begin_window(1, ctx.clock.now());
  std::vector<Gva> pages(50);
  for (u64 i = 0; i < pages.size(); ++i) pages[i] = i * kPageSize;
  const VirtDuration before = ctx.clock.now();
  est.note_interval(1, pages, ctx.clock.now() + msecs(1), ctx);
  const double charged_ns = (ctx.clock.now() - before).count() * 1e3;
  EXPECT_NEAR(charged_ns, 100.0 * 50.0, 1e-6)
      << "per-page fold cost charged to virtual time";
}

// ---- PolicyEngine: pure decision logic --------------------------------------

TEST(PolicyEngine, HysteresisBandAndFlapDamping) {
  PolicyConfig cfg;
  cfg.hot = Technique::kEpml;
  cfg.cold = Technique::kWp;
  cfg.cold_rate_threshold = 1.0;
  cfg.hot_rate_threshold = 10.0;
  cfg.warmup_windows = 1;
  cfg.min_windows_between_switches = 2;
  PolicyEngine eng(cfg);

  WssSignal sig;
  sig.windows = 0;
  sig.dirty_rate = 100.0;
  EXPECT_EQ(eng.decide(sig, Technique::kWp), Technique::kWp) << "warming up";

  sig.windows = 2;
  EXPECT_EQ(eng.decide(sig, Technique::kWp), Technique::kEpml) << "hot rate";
  EXPECT_EQ(eng.switches(), 1u);

  sig.windows = 3;
  sig.dirty_rate = 0.1;  // cold — but the switch was one window ago
  EXPECT_EQ(eng.decide(sig, Technique::kEpml), Technique::kEpml)
      << "flap damping holds the backend";

  sig.windows = 4;
  EXPECT_EQ(eng.decide(sig, Technique::kEpml), Technique::kWp);
  EXPECT_EQ(eng.switches(), 2u);

  sig.windows = 6;
  sig.dirty_rate = 5.0;  // inside the hysteresis band
  EXPECT_EQ(eng.decide(sig, Technique::kWp), Technique::kWp);
  EXPECT_EQ(eng.switches(), 2u);
}

// ---- adaptive sessions: runtime switching, loss-freedom, determinism -------

struct AdaptiveRunResult {
  double final_us = 0.0;
  u64 switches = 0;
  std::vector<Technique> history;
  EventCounters events;
  std::vector<std::vector<Gva>> captured;  ///< every interval's sorted page set
  u64 used_frames = 0;
  u64 truth_seq = 0;
};

// Drive a phase-changing workload through explicit tracker intervals:
// 3 hot write intervals, `cold_intervals` read-only intervals (the dirty
// rate decays to zero), then 3 hot intervals on fresh page ranges whose
// capture is asserted exactly — including the first interval after each
// backend switch, the point where a lossy handoff would drop pages.
AdaptiveRunResult run_phase_changing(unsigned cold_intervals,
                                     bool assert_switching) {
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 192;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  AdaptiveOptions ao;
  ao.initial = Technique::kEpml;
  ao.policy.hot = Technique::kEpml;
  ao.policy.cold = Technique::kWp;
  ao.estimator_alpha = 0.9;  // weight the newest window: fast phase response
  DirtyTracker tracker(k, proc, ao);
  tracker.init();
  tracker.begin_interval();

  AdaptiveRunResult r;
  const auto interval = [&](const std::function<void()>& body) {
    k.scheduler().enter_process(proc.pid());
    body();
    k.scheduler().exit_process(proc.pid());
    std::vector<Gva> got = tracker.collect();
    tracker.begin_interval();
    std::sort(got.begin(), got.end());
    r.captured.push_back(got);
    return got;
  };
  const auto write_range = [&](u64 from, u64 n) {
    std::vector<Gva> expect;
    expect.reserve(n);
    for (u64 i = from; i < from + n; ++i) {
      proc.touch_write(base + i * kPageSize);
      expect.push_back(base + i * kPageSize);
    }
    return expect;
  };

  // Phase 1: hot — 64 pages rewritten per interval; stays on EPML.
  for (int w = 0; w < 3; ++w) {
    std::vector<Gva> expect;
    const std::vector<Gva> got =
        interval([&] { expect = write_range(0, 64); });
    EXPECT_EQ(got, expect);
  }
  EXPECT_EQ(tracker.effective_technique(), Technique::kEpml);
  if (assert_switching) {
    EXPECT_EQ(tracker.switches(), 0u);
  }

  // Phase 2: cold — reads only; the EWMA decays to zero and the policy
  // hands off to write-protection.
  for (unsigned w = 0; w < cold_intervals; ++w) {
    const std::vector<Gva> got = interval([&] {
      for (u64 i = 0; i < 64; ++i) proc.touch_read(base + i * kPageSize);
    });
    EXPECT_TRUE(got.empty()) << "no writes in a cold interval";
  }
  if (assert_switching) {
    EXPECT_EQ(tracker.effective_technique(), Technique::kWp)
        << "cold phase must hand off EPML -> wp";
    EXPECT_GE(tracker.switches(), 1u);
    EXPECT_EQ(tracker.switch_history().front(), Technique::kWp);
  }

  // Phase 3: hot again on fresh ranges. The first interval after each
  // switch is where a lossy handoff would drop pages: capture must stay
  // exact through the wp session and the switch back to EPML.
  for (u64 w = 0; w < 3; ++w) {
    std::vector<Gva> expect;
    const std::vector<Gva> got =
        interval([&] { expect = write_range(64 + w * 16, 16); });
    EXPECT_EQ(got, expect) << "interval " << w << " after the cold phase lost pages";
  }
  if (assert_switching) {
    EXPECT_EQ(tracker.effective_technique(), Technique::kEpml)
        << "renewed write pressure must hand back wp -> EPML";
    EXPECT_GE(tracker.switches(), 2u);
    EXPECT_EQ(tracker.switch_history().back(), Technique::kEpml);
  }
  EXPECT_EQ(bed.ctx().counters.get(Event::kPolicySwitch), tracker.switches());
  EXPECT_EQ(tracker.dropped(), 0u);

  r.switches = tracker.switches();
  r.history = tracker.switch_history();
  tracker.shutdown();
  bed.audit();  // includes the POL-1 orphaned-protection pass
  r.final_us = bed.ctx().clock.now().count();
  r.events = bed.ctx().counters;
  r.used_frames = bed.machine().pmem.used_frames();
  r.truth_seq = proc.truth_seq();
  return r;
}

TEST(AdaptiveTracker, SwitchesBackendsAcrossPhasesWithoutLosingPages) {
  const AdaptiveRunResult r = run_phase_changing(10, /*assert_switching=*/true);
  EXPECT_GE(r.switches, 2u);
}

TEST(AdaptiveTracker, SameSeedSwitchingRunsReplayBitIdentically) {
  const AdaptiveRunResult a = run_phase_changing(10, /*assert_switching=*/false);
  const AdaptiveRunResult b = run_phase_changing(10, /*assert_switching=*/false);
  ASSERT_GE(a.switches, 1u) << "the replayed run must actually switch";
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.final_us, b.final_us) << "virtual clocks diverged";
  EXPECT_TRUE(a.events == b.events) << "event streams diverged";
  EXPECT_EQ(a.captured, b.captured) << "captured page sets diverged";
  EXPECT_EQ(a.used_frames, b.used_frames) << "frame allocation diverged";
  EXPECT_EQ(a.truth_seq, b.truth_seq) << "ground-truth write streams diverged";
}

TEST(AdaptiveTracker, AggregatesPhasesAndReportsAdaptiveTechnique) {
  TestBed bed;
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(32 * kPageSize);
  for (u64 i = 0; i < 32; ++i) proc.touch_write(base + i * kPageSize);

  auto tracker = make_tracker(Technique::kAdaptive, k, proc);
  EXPECT_EQ(tracker->technique(), Technique::kAdaptive);
  tracker->init();
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < 32; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  EXPECT_EQ(tracker->collect().size(), 32u);
  tracker->shutdown();
  EXPECT_EQ(tracker->effective_technique(), Technique::kEpml)
      << "default initial backend";
  EXPECT_EQ(tracker->phases().intervals, 1u);
  EXPECT_EQ(tracker->phases().collected_pages, 32u);
  bed.audit();
}

}  // namespace
}  // namespace ooh::lib

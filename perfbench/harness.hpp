// The benchmark's pass machinery, shared by the three workloads.
//
// A pass runs a workload's whole seeded operation sequence once: for each of
// its sessions (one per technique) it builds a fresh TestBed (set-up), runs
// `size` timed operations with correctness checks between them, and runs the
// end-of-session checks.
// The simulator is deterministic, so every pass of a run produces the same
// simulated statistics; their digest is compared across passes.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/counters.hpp"
#include "base/types.hpp"
#include "ooh/testbed.hpp"
#include "trace.hpp"

namespace perfbench {

using ooh::u64;

struct Options {
  std::string workload;
  u64 seed = 0;
  u64 size = 0;     ///< operations per session; 0 = the workload's default.
  u64 seconds = 0;  ///< run passes until this much wall-clock time has passed.
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file written by a traced run.
};

/// FNV-1a over the simulated statistics of a pass.
class Digest {
 public:
  void mix(u64 v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) noexcept { mix(std::bit_cast<u64>(v)); }
  [[nodiscard]] u64 value() const noexcept { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

/// Everything one pass measured.
struct PassStats {
  double setup_s = 0.0;           ///< host CPU time of every session's set-up.
  double run_s = 0.0;             ///< host CPU time of every timed operation.
  std::vector<double> op_ms;      ///< host CPU time of each operation.
  u64 ops = 0;
  u64 failed = 0;
  double virt_ms = 0.0;           ///< simulated time of the timed phases.
  ooh::EventCounters events;      ///< timed-phase events over every vCPU.
  std::map<std::string, double> totals;  ///< workload-reported per-layer sums.
  Digest digest;
};

/// Records one pass. Workloads call setup() around set-up work, bracket each
/// bed's timed phase with begin_timed()/end_timed(), and wrap every operation
/// in op(); checks run between operations and report through fail().
class Pass {
 public:
  Pass(Tracer& tracer, std::int32_t index) : tracer_(tracer) {
    tracer_.set_pass(index);
    tracer_.set_op(-1);
  }

  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }

  template <typename Fn>
  void setup(Fn&& fn) {
    const Tracer::Span span(tracer_, "bench.setup");
    const double t0 = cpu_seconds();
    fn();
    stats_.setup_s += cpu_seconds() - t0;
  }

  /// Snapshot every vCPU's clock and counters: the timed phase starts.
  void begin_timed(ooh::lib::TestBed& bed);
  /// Accumulate the timed phase's events and simulated time, and fold the
  /// final clocks and counters of every vCPU into the digest.
  void end_timed(ooh::lib::TestBed& bed);

  template <typename Fn>
  void op(Fn&& fn) {
    tracer_.set_op(static_cast<std::int64_t>(stats_.ops));
    {
      const Tracer::Span span(tracer_, "bench.op");
      const double t0 = cpu_seconds();
      fn();
      const double s = cpu_seconds() - t0;
      stats_.run_s += s;
      stats_.op_ms.push_back(s * 1e3);
    }
    tracer_.set_op(-1);
    ++stats_.ops;
    latest_failed_ = false;
  }

  /// The latest operation failed a correctness check (counted once however
  /// many of its checks fail).
  void fail() noexcept {
    if (!latest_failed_) ++stats_.failed;
    latest_failed_ = true;
  }
  /// Add to a workload-reported per-layer total.
  void add(const std::string& name, double v) { stats_.totals[name] += v; }
  Digest& digest() noexcept { return stats_.digest; }

  [[nodiscard]] PassStats take() { return std::move(stats_); }

 private:
  Tracer& tracer_;
  PassStats stats_;
  bool latest_failed_ = false;
  std::vector<ooh::EventCounters> events_at_start_;
  std::vector<double> clock_at_start_;
};

/// Each runs one pass of its workload.
void run_gc_churn(const Options& opts, Pass& pass);
void run_ckpt_kv(const Options& opts, Pass& pass);
void run_migrate_scan(const Options& opts, Pass& pass);

}  // namespace perfbench

// perfbench: the in-process layered benchmark of the OoH simulator.
//
//   perfbench --workload <gc_churn|ckpt_kv|migrate_scan> --seed <n>
//             [--size <ops per session>] [--seconds <n>] [--trace <0|1>]
//             [--trace-out <file>]
//
// Runs a warm-up pass, then passes of the workload until --seconds of
// wall-clock time have passed (at least one; a traced run alternates untraced and
// traced passes and runs at least one of each), checks every operation, and
// prints the metrics, ending with one JSON line: end-to-end metrics
// untraced, per-layer metrics traced. See README.md for the metric and
// workload definitions.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

using ooh::Event;

struct Workload {
  std::string_view name;
  u64 default_size;  ///< operations per session.
  void (*run)(const Options&, Pass&);
};

constexpr Workload kWorkloads[] = {
    {"gc_churn", 40, &run_gc_churn},
    {"ckpt_kv", 40, &run_ckpt_kv},
    {"migrate_scan", 120, &run_migrate_scan},
};

constexpr const char* kUsage =
    "usage: perfbench --workload <gc_churn|ckpt_kv|migrate_scan> --seed <n>\n"
    "                 [--size <1..100000>] [--seconds <0..3600>] [--trace <0|1>]\n"
    "                 [--trace-out <file>]\n";

struct UsageError {
  std::string what;
};

u64 parse_u64(std::string_view flag, std::string_view text, u64 lo, u64 hi) {
  u64 v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() || v < lo ||
      v > hi) {
    throw UsageError{std::string(flag) + " expects a whole number in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + std::string(text) + "'"};
  }
  return v;
}

std::pair<Options, const Workload*> parse_args(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw UsageError{std::string(flag) + " needs a value"};
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, value, 0, ~u64{0});
      have_seed = true;
    } else if (flag == "--size") {
      opts.size = parse_u64(flag, value, 1, 100000);
    } else if (flag == "--seconds") {
      opts.seconds = parse_u64(flag, value, 0, 3600);
    } else if (flag == "--trace") {
      opts.trace = parse_u64(flag, value, 0, 1) == 1;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      throw UsageError{"unknown flag '" + std::string(flag) + "'"};
    }
  }
  if (!have_seed) throw UsageError{"--seed is required"};
  for (const Workload& w : kWorkloads) {
    if (w.name == opts.workload) {
      if (opts.size == 0) opts.size = w.default_size;
      return {opts, &w};
    }
  }
  throw UsageError{"unknown workload '" + opts.workload + "'"};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename Fn>
double median_of(const std::vector<PassStats>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const PassStats& p : passes) v.push_back(fn(p));
  return median(v);
}

// Host time of repeated, identical work is taken as its fastest repetition:
// interference from other tenants of the host only ever adds time. It comes
// in bursts, and taken per operation a burst must hit that same operation in
// every pass to count, where a whole pass only has to be touched somewhere.
template <typename Fn>
double min_of(const std::vector<PassStats>& passes, Fn&& fn) {
  double best = fn(passes.front());
  for (const PassStats& p : passes) best = std::min(best, fn(p));
  return best;
}

/// Operation i does the same work in every pass; its host time is its
/// fastest pass. The operation-time quantiles and run_s are taken over these.
std::vector<double> op_ms_over_passes(const std::vector<PassStats>& passes) {
  std::vector<double> out(passes.front().op_ms.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = min_of(passes, [i](const PassStats& p) { return p.op_ms[i]; });
  }
  return out;
}

/// A pass's timed operations in host seconds, each at its fastest pass.
double run_s_of(const std::vector<double>& op_ms) {
  return std::accumulate(op_ms.begin(), op_ms.end(), 0.0) / 1e3;
}

/// The CPUs the process may run on. A lone busy thread tends to stay on one
/// CPU, and on a shared host one vCPU can run slow for most of a run, so the
/// passes are spread over all of them and each operation's fastest pass
/// comes from the fastest.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the process to one CPU. Best effort: if the kernel refuses, the pass
/// runs wherever it is.
void run_on(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-layer metrics of the traced passes.
std::vector<Metric> per_layer_metrics(const Tracer& tracer, const std::vector<PassStats>& traced,
                                      const std::vector<std::int32_t>& traced_ids,
                                      double overhead_s) {
  const PassStats& p = traced.front();  // simulated statistics repeat in every pass
  const double ops = static_cast<double>(p.ops);
  const double passes = static_cast<double>(traced.size());
  const auto per_op = [&](Event e) { return static_cast<double>(p.events.get(e)) / ops; };
  const auto total_per_op = [&](const char* name) {
    const auto it = p.totals.find(name);
    return it == p.totals.end() ? 0.0 : it->second / ops;
  };
  const std::map<std::string, double> timed = tracer.self_seconds_by_name(traced_ids, true);
  const std::map<std::string, double> setup = tracer.self_seconds_by_name(traced_ids, false);
  const auto span_s = [&](const std::map<std::string, double>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second / passes;
  };
  const double hits = static_cast<double>(p.events.get(Event::kTlbHit));
  const double misses = static_cast<double>(p.events.get(Event::kTlbMiss));
  const double truth = total_per_op("ooh.truth_pages");

  return {
      {"sim.tlb_hit", per_op(Event::kTlbHit), "count/op"},
      {"sim.tlb_miss", per_op(Event::kTlbMiss), "count/op"},
      {"sim.tlb_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"sim.guest_pt_walk", per_op(Event::kGuestPtWalk), "count/op"},
      {"sim.ept_walk", per_op(Event::kEptWalk), "count/op"},
      {"sim.tlb_flush", per_op(Event::kTlbFlush), "count/op"},
      {"sim.ept_dirty_set", per_op(Event::kEptDirtySet), "count/op"},
      {"sim.pml_log_gpa", per_op(Event::kPmlLogGpa), "count/op"},
      {"sim.pml_log_gva", per_op(Event::kPmlLogGvaGuest), "count/op"},
      {"guest.access_s", span_s(timed, "guest.access"), "s"},
      {"guest.pf_soft_dirty", per_op(Event::kPageFaultSoftDirty), "count/op"},
      {"guest.pf_demand", per_op(Event::kPageFaultDemand), "count/op"},
      {"guest.clear_refs", per_op(Event::kClearRefs), "count/op"},
      {"guest.pagemap_scan", per_op(Event::kPagemapScan), "count/op"},
      {"guest.ctx_switch", per_op(Event::kContextSwitch), "count/op"},
      {"guest.prefault_s", span_s(setup, "guest.prefault"), "s"},
      {"hypervisor.testbed_build_s", span_s(setup, "hypervisor.testbed_build"), "s"},
      {"hypervisor.migrate_self_s", span_s(timed, "hypervisor.migrate"), "s"},
      {"hypervisor.vmexit", per_op(Event::kVmExit), "count/op"},
      {"hypervisor.vmexit_pml_full", per_op(Event::kVmExitPmlFull), "count/op"},
      {"hypervisor.hypercall", per_op(Event::kHypercall), "count/op"},
      {"hypervisor.migration_round", per_op(Event::kMigrationRound), "count/op"},
      {"hypervisor.pages_sent", per_op(Event::kMigrationPageSent), "count/op"},
      {"hypervisor.dirty_ring_full", per_op(Event::kDirtyRingFull), "count/op"},
      {"hypervisor.downtime_virt_ms", total_per_op("hypervisor.downtime_virt_ms"),
       "virt_ms/op"},
      {"ooh.tracker_init_s", span_s(setup, "ooh.tracker_init"), "s"},
      {"ooh.collect_s", span_s(timed, "ooh.collect") + span_s(timed, "ooh.arm"), "s"},
      {"ooh.collected_pages", total_per_op("ooh.collected_pages"), "count/op"},
      {"ooh.capture_ratio", truth > 0 ? total_per_op("ooh.collected_pages") / truth : 0.0,
       "ratio"},
      {"ooh.dropped", per_op(Event::kRingBufOverflow), "count/op"},
      {"ooh.reverse_map_lookup", per_op(Event::kReverseMapLookup), "count/op"},
      {"ooh.ringbuf_fetch", per_op(Event::kRingBufFetchEntry), "count/op"},
      {"ooh.virt_collect_ms", total_per_op("ooh.virt_collect_ms"), "virt_ms/op"},
      {"ooh.virt_arm_ms", total_per_op("ooh.virt_arm_ms"), "virt_ms/op"},
      {"boehmgc.collect_s", span_s(timed, "boehmgc.collect"), "s"},
      {"boehmgc.alloc_s", span_s(timed, "boehmgc.alloc"), "s"},
      {"boehmgc.pages_rescanned", total_per_op("boehmgc.pages_rescanned"), "count/op"},
      {"boehmgc.objects_marked", total_per_op("boehmgc.objects_marked"), "count/op"},
      {"boehmgc.objects_freed", total_per_op("boehmgc.objects_freed"), "count/op"},
      {"boehmgc.live_objects", total_per_op("boehmgc.live_objects"), "count"},
      {"boehmgc.virt_dirty_query_ms", total_per_op("boehmgc.virt_dirty_query_ms"),
       "virt_ms/op"},
      {"boehmgc.virt_pause_ms", total_per_op("boehmgc.virt_pause_ms"), "virt_ms/op"},
      {"criu.session_init_s", span_s(setup, "criu.session_init"), "s"},
      {"criu.step_self_s", span_s(timed, "criu.step"), "s"},
      {"criu.dirty_pages", total_per_op("criu.dirty_pages"), "count/op"},
      {"criu.disk_page_write", per_op(Event::kDiskPageWrite), "count/op"},
      {"criu.virt_dump_ms", total_per_op("criu.virt_dump_ms"), "virt_ms/op"},
      {"bench.trace_overhead_s", overhead_s, "s"},
  };
}

/// Self time per module (the part of a span name before the '.'), per pass.
void print_layer_summary(const Tracer& tracer, const std::vector<std::int32_t>& traced_ids) {
  std::map<std::string, std::pair<double, double>> by_module;  // setup, timed
  for (const bool in_ops : {false, true}) {
    for (const auto& [name, s] : tracer.self_seconds_by_name(traced_ids, in_ops)) {
      auto& slot = by_module[std::string(span_module(name))];
      (in_ops ? slot.second : slot.first) += s / static_cast<double>(traced_ids.size());
    }
  }
  std::printf("  per-layer self time per pass (host CPU s; spans around the benchmark's calls):\n");
  std::printf("    %-12s %12s %12s\n", "module", "set-up", "timed");
  for (const auto& [module, t] : by_module) {
    std::printf("    %-12s %12.6f %12.6f\n", module.c_str(), t.first, t.second);
  }
}

void print_json(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opts, const Workload& workload) {
  Tracer tracer;
  // Pass 0 warms up the allocator and caches. It is checked like every other
  // pass but left out of the timings.
  PassStats warmup;
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  std::vector<std::int32_t> traced_ids;
  const std::vector<int> cpus = allowed_cpus();
  const HostClock::time_point start = HostClock::now();
  for (std::int32_t index = 0;; ++index) {
    // Passes move round the CPUs two at a time, so a traced pass runs where
    // the untraced pass before it ran.
    if (!cpus.empty()) run_on(cpus[static_cast<std::size_t>((index + 1) / 2) % cpus.size()]);
    const bool traced_pass = opts.trace && index > 0 && index % 2 == 0;
    tracer.set_enabled(traced_pass);
    Pass pass(tracer, index);
    workload.run(opts, pass);
    if (index == 0) {
      warmup = pass.take();
    } else {
      (traced_pass ? traced : untraced).push_back(pass.take());
      if (traced_pass) traced_ids.push_back(index);
    }
    const bool have_all = !untraced.empty() && (!opts.trace || !traced.empty());
    if (have_all && seconds_between(start, HostClock::now()) >= static_cast<double>(opts.seconds)) {
      break;
    }
  }
  tracer.set_enabled(false);

  // Every pass replays the same seeded inputs on a deterministic simulator,
  // so any difference in the simulated statistics is a bug.
  const u64 digest = warmup.digest.value();
  bool same_digest = true;
  u64 attempted = warmup.ops;
  u64 failed = warmup.failed;
  for (const std::vector<PassStats>* group : {&untraced, &traced}) {
    for (const PassStats& p : *group) {
      same_digest = same_digest && p.digest.value() == digest;
      attempted += p.ops;
      failed += p.failed;
    }
  }
  const PassStats& first = untraced.front();
  const std::vector<double> op_ms = op_ms_over_passes(untraced);
  const double run_s = run_s_of(op_ms);
  const double accesses = static_cast<double>(first.events.get(Event::kTlbHit) +
                                              first.events.get(Event::kTlbMiss));

  std::printf("perfbench %s seed=%llu size=%llu: warm-up + %zu untraced + %zu traced passes "
              "of %llu ops\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(opts.size), untraced.size(), traced.size(),
              static_cast<unsigned long long>(first.ops));
  std::printf("  digest 0x%016llx (%s in every pass)\n", static_cast<unsigned long long>(digest),
              same_digest ? "identical" : "NOT identical");
  std::printf("  simulated time per pass %.6f virt_ms\n", first.virt_ms);
  std::printf("  ops %llu, failed %llu, ops_failed_ratio %.6g\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("  op time quantiles over %llu operations, each its fastest of %zu passes\n",
              static_cast<unsigned long long>(first.ops), untraced.size());
  std::printf("  untraced passes (setup_s/run_s):");
  for (const PassStats& p : untraced) std::printf(" %.4f/%.4f", p.setup_s, p.run_s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"setup_s", median_of(untraced, [](const PassStats& p) { return p.setup_s; }), "s"},
        {"run_s", run_s, "s"},
        {"op_ms_p50", quantile(op_ms, 0.5), "ms"},
        {"op_ms_p90", quantile(op_ms, 0.9), "ms"},
        {"maccess_per_s", accesses / run_s / 1e6, "M/s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"virt_ms", first.virt_ms, "virt_ms"},
    };
  } else {
    const double traced_run_s = run_s_of(op_ms_over_passes(traced));
    std::printf("  tracing overhead: run_s %.6f traced vs %.6f untraced (%+.6f s, %+.2f%%)\n",
                traced_run_s, run_s, traced_run_s - run_s, 100.0 * (traced_run_s / run_s - 1.0));
    print_layer_summary(tracer, traced_ids);
    metrics = per_layer_metrics(tracer, traced, traced_ids, traced_run_s - run_s);
    if (!opts.trace_out.empty()) {
      if (!tracer.write_chrome_json(opts.trace_out, opts.workload)) {
        std::fprintf(stderr, "perfbench: cannot write trace to %s\n", opts.trace_out.c_str());
        return 1;
      }
      std::printf("  trace: %zu spans written to %s\n", tracer.records().size(),
                  opts.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(same_digest && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pin glibc's allocation policy. Its default raises the mmap threshold
  // after a large free, so whether a later 8 MiB ring (or a big table) is
  // freshly mapped or carved from reused heap, and with it set-up time and
  // peak RSS, changed from pass to pass and seed to seed. With a fixed
  // threshold every large block is mapped fresh each time, and the small-
  // object heap is never trimmed, so each pass does the same work.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    const auto [opts, workload] = parse_args(argc, argv);
    return run(opts, *workload);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what.c_str(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

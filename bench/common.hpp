// Shared helpers for the bench harnesses.
//
// Every binary regenerates one of the paper's tables/figures. Default runs
// use scaled-down workloads so the whole suite finishes in minutes; pass
// --full for the paper-scale configurations (Table III sizes, 1MB..1GB
// sweeps).
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/table.hpp"
#include "base/vtime.hpp"
#include "ooh/adaptive/policy.hpp"
#include "ooh/epoch_run.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "run_setup.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ooh::bench {

struct Args {
  bool full = false;
  /// Workload scale divisor: 1 at --full, else a bench-chosen default.
  u64 scale = 32;
  /// Worker threads for every figure's cell fan-out (0 = OOH_EPOCH_THREADS,
  /// else auto-size to the host) and for figs. 10-11's VM fleets (0 = auto).
  unsigned threads = 0;
  /// --gran: EPT backing granularity for the figs. 10-11 gran sections
  /// (4k | 2m | 2m+split). Default 4k keeps every figure byte-identical.
  GranMode gran = GranMode::k4K;
  /// --adaptive: append the adaptive-control-plane section to figs. 10-11
  /// (phase-changing workload, static backends vs policy-driven switching).
  /// Off by default so the stock figures stay byte-identical.
  bool adaptive = false;

  /// Parse the bench flags. An unknown flag, or a valued flag with a missing
  /// or malformed value, exits 2 with a usage message instead of running
  /// with a default.
  static Args parse(int argc, char** argv, u64 default_scale = 32) {
    keep_freed_memory();
    Args a;
    a.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      const auto value = [&]() -> std::string_view {
        if (i + 1 >= argc) bad_value(argv[0], flag, "");
        return argv[++i];
      };
      if (flag == "--full") {
        a.full = true;
        a.scale = 1;
      } else if (flag == "--threads") {
        a.threads = parse_count(argv[0], flag, value());
      } else if (flag == "--gran") {
        const std::string_view v = value();
        const std::optional<GranMode> m = parse_gran_mode(v);
        if (!m) bad_value(argv[0], flag, v);
        a.gran = *m;
      } else if (flag == "--adaptive") {
        a.adaptive = true;
      } else {
        usage_error(argv[0], "unknown flag '" + std::string(flag) + "'");
      }
    }
    return a;
  }

 private:
  /// Pin glibc's allocation policy so a figure's cells reuse each other's
  /// memory. By default free() trims the heap top and raises the mmap
  /// threshold as large chunks are freed, so every CRIU cell of figs. 7-9
  /// faulted its predecessor's test bed and checkpoint image back in. Now
  /// blocks under 4 MiB come from a heap that is never trimmed. Larger ones,
  /// such as the 8 MiB SPML rings, stay separate mappings: calloc hands them
  /// out zeroed without touching a page, where a reused heap chunk would be
  /// cleared and committed in full.
  static void keep_freed_memory() {
#if defined(__GLIBC__)
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  }

  [[noreturn]] static void usage_error(const char* prog, const std::string& why) {
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s [--full] [--threads N] "
                 "[--gran 4k|2m|2m+split] [--adaptive]\n",
                 prog, why.c_str(), prog);
    std::exit(2);
  }

  [[noreturn]] static void bad_value(const char* prog, std::string_view flag,
                                     std::string_view v) {
    usage_error(prog, "bad or missing value '" + std::string(v) + "' for " + std::string(flag));
  }

  /// A whole decimal number that fits in `unsigned`; anything else exits 2.
  static unsigned parse_count(const char* prog, std::string_view flag, std::string_view v) {
    unsigned n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (v.empty() || ec != std::errc{} || end != v.data() + v.size()) {
      bad_value(prog, flag, v);
    }
    return n;
  }
};

/// The memory sweep of Table I / Table V(b) / Figs. 3-4.
inline std::vector<u64> memory_sweep(bool full) {
  if (full) {
    return {1 * kMiB, 10 * kMiB, 50 * kMiB, 100 * kMiB, 250 * kMiB, 500 * kMiB, kGiB};
  }
  return {1 * kMiB, 10 * kMiB, 50 * kMiB, 100 * kMiB};
}

inline std::string mem_label(u64 bytes) {
  if (bytes >= kGiB) return std::to_string(bytes / kGiB) + "GB";
  return std::to_string(bytes / kMiB) + "MB";
}

inline void print_header(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("(virtual-time simulation; see EXPERIMENTS.md for paper values)\n");
  std::printf("==============================================================\n");
}

/// A figure's rows x cols grid of independent cells, fanned out through
/// lib::run_cells: cell(r, c) lands in grid[r][c] at any worker count.
template <typename T, typename Fn>
std::vector<std::vector<T>> run_grid(std::size_t rows, std::size_t cols, Fn&& cell,
                                     unsigned threads) {
  std::vector<T> flat = lib::run_cells<T>(
      rows * cols, [&](std::size_t i) { return cell(i / cols, i % cols); }, threads);
  std::vector<std::vector<T>> grid;
  for (auto it = flat.begin(); it != flat.end(); it += cols) {
    grid.emplace_back(std::make_move_iterator(it), std::make_move_iterator(it + cols));
  }
  return grid;
}

/// The application's untracked completion time (us) on a fresh bed: the ideal
/// that fig9 and Table IV measure overheads against, one cell per app.
inline double app_ideal_us(std::string_view app, wl::ConfigSize size, u64 scale) {
  lib::TestBed bed;
  const WorkloadRun wr = prepare_workload(bed.kernel(), app, size, scale);
  return lib::run_baseline(bed.kernel(), *wr.proc, wr.workload->runner())
      .tracked_time.count();
}

// ---- the microbench of Tables I and VI and Figs. 3-4 ------------------------

/// The Tracked body: eight write passes, calibrated so the monitoring window
/// gives each page ~0.8us of Tracked work -- this puts the large-size
/// overheads in the paper's range (ufd ~15x, /proc ~4x, SPML ~66x at 1GB).
inline lib::WorkloadFn micro_body(Gva base, u64 mem_bytes) {
  const u64 pages = pages_for_bytes(mem_bytes);
  return [base, pages](guest::Process& p) {
    for (int pass = 0; pass < 8; ++pass) {
      for (u64 i = 0; i < pages; ++i) p.write_u64(base + i * kPageSize, i);
    }
  };
}

/// The microbench's untracked ideal at `mem_bytes` (us): one cell per size,
/// shared by every technique's tracked cell of that size.
inline double micro_ideal_us(u64 mem_bytes) {
  lib::TestBed bed(sized_bed_options(mem_bytes));
  const PreparedProcess pp = prepare_process(bed.kernel(), mem_bytes);
  return lib::run_baseline(bed.kernel(), *pp.proc, micro_body(pp.base, mem_bytes))
      .tracked_time.count();
}

/// One warm single-cycle tracked run (the paper's Table I / Fig. 4
/// methodology): one collection at 3/4 of the size's ideal, then a final one.
inline lib::RunResult run_micro(lib::Technique tech, u64 mem_bytes, double ideal_us) {
  lib::TestBed bed(sized_bed_options(mem_bytes));
  auto& k = bed.kernel();
  const PreparedProcess pp = prepare_process(k, mem_bytes);
  auto tracker = lib::make_tracker(tech, k, *pp.proc);
  lib::RunOptions ro;
  ro.collect_period = usecs(ideal_us) * 0.75;
  ro.max_collections = 1;
  const lib::RunResult r =
      lib::run_tracked(k, *pp.proc, micro_body(pp.base, mem_bytes), tracker.get(), ro);
  tracker->shutdown();
  return r;
}

/// The microbench grid: one untracked ideal cell per size, then one tracked
/// cell per (technique, size) that collects at 3/4 of its size's ideal.
struct MicroGrid {
  std::vector<double> ideal_us;                   ///< [size]
  std::vector<std::vector<lib::RunResult>> runs;  ///< [technique][size]
};

inline MicroGrid run_micro_grid(const std::vector<lib::Technique>& techs,
                                const std::vector<u64>& sizes, unsigned threads) {
  MicroGrid g;
  g.ideal_us = lib::run_cells<double>(
      sizes.size(), [&](std::size_t i) { return micro_ideal_us(sizes[i]); }, threads);
  g.runs = run_grid<lib::RunResult>(
      techs.size(), sizes.size(),
      [&](std::size_t r, std::size_t c) { return run_micro(techs[r], sizes[c], g.ideal_us[c]); },
      threads);
  return g;
}

// ---- SMP guests: per-vCPU dirty rings ---------------------------------------

/// One SMP configuration of the figs. 10-11 vCPU axis: a single VM with
/// `vcpus` vCPUs, one pinned writer process per vCPU, a hypervisor PML
/// session over the touch phase. The vCPUs run one after another on the
/// calling thread; each has its own virtual clock, PML buffer and dirty
/// ring, and the final harvest empties every ring.
struct SmpDrainResult {
  double wall_ms = 0.0;      ///< host wall clock of the touch+harvest phase.
  double max_vcpu_ms = 0.0;  ///< slowest vCPU's virtual time.
  double spread_pct = 0.0;   ///< (max-min)/max over the per-vCPU clocks.
  u64 drained = 0;           ///< ring entries the harvest popped, all vCPUs.
  u64 harvested = 0;         ///< union of dirty GPAs at the final harvest.
};

inline SmpDrainResult run_smp_drain(unsigned vcpus, u64 pages_per_vcpu, int passes,
                                    GranMode gran = GranMode::k4K) {
  lib::TestBedOptions opts =
      sized_bed_options(u64{vcpus} * pages_per_vcpu * kPageSize * 2);
  opts.vcpus_per_vm = vcpus;
  apply_gran(opts, gran);
  lib::TestBed bed(opts);
  hv::Vm& vm = bed.vm();
  guest::GuestKernel& k = bed.kernel();
  hv::Hypervisor& hv = bed.hypervisor();

  std::vector<guest::Process*> procs(vcpus);
  std::vector<Gva> bases(vcpus);
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
    procs[cpu] = &k.create_process();  // round-robin pins proc i to vCPU i
    bases[cpu] = procs[cpu]->mmap(pages_per_vcpu * kPageSize);
    // Warmup so the timed phase allocates nothing.
    procs[cpu]->touch_range_write(bases[cpu], pages_per_vcpu * kPageSize);
  }
  hv.enable_pml_for_hyp(vm);

  SmpDrainResult out;
  const auto start = std::chrono::steady_clock::now();
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
    for (int pass = 0; pass < passes; ++pass) {
      procs[cpu]->touch_range_write(bases[cpu], pages_per_vcpu * kPageSize);
    }
  }
  out.harvested = hv.harvest_hyp_dirty(vm).size();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) out.drained += vm.dirty_ring(cpu).popped();
  hv.disable_pml_for_hyp(vm);

  double min_us = 1e300, max_us = 0.0;
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
    const double us = vm.vcpu(cpu).ctx().clock.now().count();
    min_us = std::min(min_us, us);
    max_us = std::max(max_us, us);
  }
  out.max_vcpu_ms = max_us / 1e3;
  out.spread_pct = max_us > 0.0 ? (max_us - min_us) / max_us * 100.0 : 0.0;
  bed.audit();
  return out;
}

// ---- adaptive control plane: phase-changing workload ------------------------

/// One run of the figs. 10-11 --adaptive section: hot write bursts, a cold
/// read stretch, hot bursts again — the phase shape where a static backend
/// is wrong half the time. `static_tech` pins the backend; nullopt runs the
/// adaptive control plane (WssEstimator + PolicyEngine over live handoff).
struct AdaptivePhasesResult {
  double virt_ms = 0.0;       ///< guest + tracker virtual time, whole run.
  u64 pages = 0;              ///< dirty pages collected across all intervals.
  u64 switches = 0;           ///< live backend handoffs (0 for static).
  std::string final_backend;  ///< backend active when the run ended.
};

inline AdaptivePhasesResult run_adaptive_phases(
    std::optional<lib::Technique> static_tech, u64 hot_pages = 256,
    int hot_intervals = 4, int cold_intervals = 12) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(4 * hot_pages * kPageSize);
  proc.touch_range_write(base, 4 * hot_pages * kPageSize);  // prefault

  std::unique_ptr<lib::DirtyTracker> tracker;
  if (static_tech) {
    tracker = lib::make_tracker(*static_tech, k, proc);
  } else {
    lib::AdaptiveOptions ao;
    ao.estimator_alpha = 0.9;  // respond within a couple of windows
    tracker = std::make_unique<lib::DirtyTracker>(k, proc, ao);
  }
  tracker->init();
  tracker->begin_interval();

  AdaptivePhasesResult out;
  const VirtDuration start = bed.ctx().clock.now();
  const auto interval = [&](auto body) {
    k.scheduler().enter_process(proc.pid());
    body();
    k.scheduler().exit_process(proc.pid());
    out.pages += tracker->collect().size();
    tracker->begin_interval();
  };
  for (int i = 0; i < hot_intervals; ++i) {
    interval([&] { proc.touch_range_write(base, hot_pages * kPageSize); });
  }
  for (int i = 0; i < cold_intervals; ++i) {
    interval([&] { proc.touch_read(base); });  // reads only: the cold phase
  }
  for (int i = 0; i < hot_intervals; ++i) {
    interval([&] {
      proc.touch_range_write(base + 2 * hot_pages * kPageSize,
                             hot_pages * kPageSize);
    });
  }
  out.virt_ms = (bed.ctx().clock.now() - start).count() / 1e3;
  out.switches = tracker->switches();
  out.final_backend = std::string(lib::technique_name(tracker->effective_technique()));
  tracker->shutdown();
  bed.audit();
  return out;
}

/// Renders the --adaptive section shared by figs. 10 and 11.
inline void print_adaptive_section() {
  std::printf("\nAdaptive control plane: phase-changing workload (--adaptive)\n");
  TextTable a({"tracker", "virt (ms)", "pages", "switches", "final backend"});
  const std::pair<const char*, std::optional<lib::Technique>> kRows[] = {
      {"epml (static)", lib::Technique::kEpml},
      {"wp (static)", lib::Technique::kWp},
      {"adaptive", std::nullopt}};
  for (const auto& [label, tech] : kRows) {
    const AdaptivePhasesResult r = run_adaptive_phases(tech);
    a.add_row({label, TextTable::fmt(r.virt_ms, 2), std::to_string(r.pages),
               std::to_string(r.switches), r.final_backend});
  }
  a.print(std::cout);
  std::printf("Shape check: the adaptive run switches backends at least twice\n"
              "(hot->cold->hot) and captures exactly the pages static EPML does.\n"
              "Its virtual-time gap vs the winning static backend is the handoff\n"
              "tax -- arming/disarming the cold backend's write protection over\n"
              "the tracked VMA -- paid once per phase change, amortised over\n"
              "phase length; the cold windows themselves run with no standing\n"
              "PML session or ring to service.\n");
}

/// The vCPU counts the SMP sections sweep.
inline std::vector<unsigned> vcpu_sweep() { return {1, 2, 4}; }

}  // namespace ooh::bench

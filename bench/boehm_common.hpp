// Shared runner for the Boehm GC experiments (Figs. 5, 6, 10, 11): run one
// application with the GC attached, collections driven by the given dirty
// tracking technique, all inside one tenant VM of a TestBed.
#pragma once

#include <chrono>

#include "common.hpp"
#include "trackers/boehmgc/gc.hpp"
#include "workloads/registry.hpp"

namespace ooh::bench {

struct BoehmRun {
  double app_time_us = 0.0;        ///< Tracked completion time, GC included.
  double gc_total_us = 0.0;        ///< sum of all collection pauses.
  double gc_first_cycle_us = 0.0;  ///< the cycle where SPML reverse-maps.
  double gc_later_avg_us = 0.0;    ///< mean pause of cycles 2..n.
  unsigned cycles = 0;
};

inline BoehmRun run_boehm_in(guest::GuestKernel& k, std::string_view app,
                             wl::ConfigSize size, u64 scale, lib::Technique tech) {
  guest::Process& proc = k.create_process();
  auto w = wl::make_workload(app, size, scale);
  // Heap sized to the (scaled) workload; threshold tuned so runs perform
  // several collection cycles, as the paper's apps do (2..23 cycles, §VI-E).
  const u64 heap_bytes = std::max<u64>(w->footprint_bytes() * 2, 16 * kMiB);
  const u64 threshold = std::clamp<u64>(w->footprint_bytes() / 8, 256 * 1024, 4 * kMiB);
  gc::GcHeap heap(k, proc, heap_bytes, threshold);
  heap.set_technique(tech);
  heap.prepare_tracker();  // startup-time init, outside any cycle's pause
  w->attach_gc(&heap);
  w->setup(proc);

  sim::ExecContext& m = k.ctx();
  const VirtDuration start = m.clock.now();
  k.scheduler().enter_process(proc.pid());
  w->run(proc);
  // Final collection, as Boehm performs at least one full cycle per run.
  (void)heap.collect();
  k.scheduler().exit_process(proc.pid());

  BoehmRun out;
  out.app_time_us = (m.clock.now() - start).count();
  const gc::GcStats& stats = heap.stats();
  out.cycles = stats.cycle_count();
  out.gc_total_us = stats.total_gc_time.count();
  if (!stats.cycles.empty()) {
    out.gc_first_cycle_us = stats.cycles.front().duration.count();
    double later = 0.0;
    for (std::size_t i = 1; i < stats.cycles.size(); ++i) {
      later += stats.cycles[i].duration.count();
    }
    out.gc_later_avg_us =
        stats.cycles.size() > 1 ? later / static_cast<double>(stats.cycles.size() - 1) : 0.0;
  }
  return out;
}

/// The Figs. 5-6 grid: one cell per (app, technique), each on its own bed.
inline std::vector<std::vector<BoehmRun>> run_boehm_grid(
    const std::vector<AppConfig>& apps, const std::vector<lib::Technique>& techs, u64 scale,
    unsigned threads) {
  return run_grid<BoehmRun>(
      apps.size(), techs.size(),
      [&](std::size_t a, std::size_t t) {
        lib::TestBed bed;
        return run_boehm_in(bed.kernel(), apps[a].first, apps[a].second, scale, techs[t]);
      },
      threads);
}

/// "name (Config)": the Figs. 5-6 row label.
inline std::string app_label(const AppConfig& app) {
  return std::string(app.first) + " (" + std::string(wl::config_name(app.second)) + ")";
}

/// One scalability-study configuration (Figs. 10-11): `vms` tenant VMs each
/// running the same Boehm+histogram workload, timelines executed by the
/// TestBed worker pool. Per-VM virtual-time results are independent of
/// `workers` (bit-identical serial vs. parallel); only the host wall clock
/// changes.
struct FleetResult {
  std::vector<BoehmRun> runs;  ///< indexed by VM.
  double wall_ms = 0.0;        ///< host wall-clock for the whole fleet.
};

inline FleetResult run_boehm_fleet(unsigned vms, u64 scale, lib::Technique tech,
                                   unsigned workers,
                                   GranMode gran = GranMode::k4K) {
  lib::TestBedOptions opts;
  opts.tenant_vms = vms;
  apply_gran(opts, gran);
  lib::TestBed bed(opts);
  FleetResult out;
  out.runs.resize(vms);
  const auto start = std::chrono::steady_clock::now();
  bed.run_tenants(
      [&](unsigned i) {
        out.runs[i] = run_boehm_in(bed.kernel(i), "histogram", wl::ConfigSize::kLarge,
                                   scale, tech);
        // Per-VM coherence audit from the worker thread itself (audit builds
        // only): tenants audit concurrently, the global frame pass runs
        // after the pool joins inside run_tenants().
        bed.hypervisor().audit_now(bed.vm(i).id());
      },
      workers);
  out.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace ooh::bench

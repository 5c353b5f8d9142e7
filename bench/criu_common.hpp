// Shared runner for the CRIU experiments (Figs. 7-9): checkpoint one
// application while it runs, under the given technique.
#pragma once

#include "common.hpp"
#include "trackers/criu/checkpoint.hpp"
#include "workloads/registry.hpp"

namespace ooh::bench {

/// What Figs. 7-9 read of one checkpoint cell. The image is dropped inside
/// the cell, so a grid holds at most one image per worker, not one per cell.
struct CriuCell {
  criu::CheckpointPhases phases;
  lib::RunResult run;  ///< workload-side metrics (tracked time etc).
};

/// Checkpoint the application while it runs: an initial full copy, then
/// `tech`-tracked incremental dumps and the final MD + MW.
inline CriuCell run_criu(std::string_view app, wl::ConfigSize size, u64 scale,
                         lib::Technique tech) {
  lib::TestBed bed;
  const WorkloadRun wr = prepare_workload(bed.kernel(), app, size, scale);
  criu::CheckpointOptions opts;
  opts.initial_full_copy = true;
  const criu::CheckpointResult r = criu::Checkpointer(bed.kernel(), tech)
                                       .checkpoint_during(*wr.proc, wr.workload->runner(), opts);
  return {r.phases, r.run};
}

/// Fig. 7-9 application set: Phoenix + tkrzw at Large configuration.
inline std::vector<AppConfig> criu_apps() {
  std::vector<AppConfig> apps;
  for (const std::string_view a : wl::phoenix_apps()) {
    apps.emplace_back(a, wl::ConfigSize::kLarge);
  }
  for (const std::string_view a : wl::tkrzw_apps()) {
    apps.emplace_back(a, wl::ConfigSize::kLarge);
  }
  return apps;
}

/// The Figs. 7-9 columns.
inline constexpr lib::Technique kCriuTechs[] = {lib::Technique::kProc, lib::Technique::kSpml,
                                                lib::Technique::kEpml};

/// The Figs. 7-9 grid: one checkpoint cell per (app, technique).
inline std::vector<std::vector<CriuCell>> run_criu_grid(const std::vector<AppConfig>& apps,
                                                       u64 scale, unsigned threads) {
  return run_grid<CriuCell>(
      apps.size(), std::size(kCriuTechs),
      [&](std::size_t a, std::size_t t) {
        return run_criu(apps[a].first, apps[a].second, scale, kCriuTechs[t]);
      },
      threads);
}

}  // namespace ooh::bench

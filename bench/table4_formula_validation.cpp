// Table IV: validation of the analytical model (Formulas 1-4).
//
// The paper runs CRIU over tkrzw-baby, collects per-event counts, and shows
// the formulas estimate E(C_tker) with ~96% and E(C_tked_tker) with ~99%
// accuracy. We do the same against the simulator for SPML and /proc (and,
// beyond the paper, for ufd and EPML).
#include "common.hpp"
#include "model/formulas.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/64);
  bench::print_header("Table IV", "Formula validation: estimated vs measured times");

  // One untracked ideal of tkrzw-baby, then one tracked cell per technique,
  // each on a fresh bed.
  const double ideal_us = bench::app_ideal_us("baby", wl::ConfigSize::kSmall, args.scale);
  constexpr lib::Technique kTechs[] = {lib::Technique::kSpml, lib::Technique::kProc,
                                       lib::Technique::kUfd, lib::Technique::kEpml};
  const std::vector<std::vector<double>> rows = lib::run_cells<std::vector<double>>(
      std::size(kTechs),
      [&](std::size_t i) {
        const lib::Technique tech = kTechs[i];
        lib::TestBed bed;
        auto& k = bed.kernel();
        const bench::WorkloadRun wr =
            bench::prepare_workload(k, "baby", wl::ConfigSize::kSmall, args.scale);
        auto tracker = lib::make_tracker(tech, k, *wr.proc);
        lib::RunOptions opts;
        opts.collect_period = usecs(ideal_us * 0.75);
        opts.max_collections = 1;
        opts.final_collect = false;
        const lib::RunResult r =
            lib::run_tracked(k, *wr.proc, wr.workload->runner(), tracker.get(), opts);
        tracker->shutdown();

        const double meas_tker = r.tracker_time().count() - r.phases.init.count();
        const double meas_tked = r.tracked_time.count();
        const model::ModelParams params =
            model::params_from_events(tech, wr.proc->mapped_bytes(), r.events);
        const model::Estimate est =
            model::estimate(tech, params, CostModel::paper_calibrated());
        const double est_tker = est.tracker_us(0.0);
        const double est_tked = est.tracked_us(ideal_us, 0.0);
        return std::vector<double>{
            meas_tker / 1e3, est_tker / 1e3,
            meas_tker > 0 ? model::accuracy_pct(est_tker, meas_tker) : 100.0,
            meas_tked / 1e3, est_tked / 1e3, model::accuracy_pct(est_tked, meas_tked)};
      },
      args.threads);

  TextTable t({"technique", "E(C_tker) meas (ms)", "E(C_tker) est (ms)", "acc (%)",
               "E(C_tked) meas (ms)", "E(C_tked) est (ms)", "acc (%)"});
  for (std::size_t i = 0; i < std::size(kTechs); ++i) {
    t.add_row(std::string(lib::technique_name(kTechs[i])), rows[i], 2);
  }
  t.print(std::cout);
  std::printf("\nShape check: accuracies comparable to the paper's 96%%+/99%%.\n");
  return 0;
}

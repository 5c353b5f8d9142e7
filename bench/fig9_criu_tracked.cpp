// Figure 9: impact of CRIU checkpointing on the Tracked application's
// execution time per technique, against the untracked ideal.
//
// Paper's findings: /proc costs up to ~102% (pca); SPML from ~1% to ~114%;
// EPML never exceeds 14% with an average of ~3%.
#include "criu_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 9", "CRIU overhead (%) on Tracked per technique");

  const auto apps = bench::criu_apps();
  const std::vector<double> ideal = lib::run_cells<double>(
      apps.size(),
      [&](std::size_t a) { return bench::app_ideal_us(apps[a].first, apps[a].second, args.scale); },
      args.threads);
  const auto runs = bench::run_criu_grid(apps, args.scale, args.threads);

  TextTable t({"application", "/proc (%)", "SPML (%)", "EPML (%)"});
  double epml_max = 0.0, epml_sum = 0.0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<double> row;
    for (const bench::CriuCell& r : runs[a]) {
      row.push_back((r.run.tracked_time.count() - ideal[a]) / ideal[a] * 100.0);
    }
    t.add_row(std::string(apps[a].first), row, 1);
    epml_max = std::max(epml_max, row[2]);
    epml_sum += row[2];
  }
  t.print(std::cout);
  std::printf("\nEPML overhead: max %.1f%%, average %.1f%% (paper: max 14%%, avg 3%%).\n",
              epml_max, epml_sum / static_cast<double>(apps.size()));
  return 0;
}

// Figure 6: impact of Boehm GC on the Tracked application's execution time
// per technique. Baseline: the application with a zero-cost (oracle) dirty
// tracker -- the paper's "ideal execution time when not tracked".
//
// Paper's findings: /proc adds up to 232% (string-match); SPML up to 273%;
// EPML cuts the overhead to ~24% worst case, reducing it by ~62%.
#include "boehm_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/64);
  bench::print_header("Figure 6", "Boehm GC overhead (%) on Tracked per technique");

  const std::vector<bench::AppConfig> apps = {
      {"GCBench", wl::ConfigSize::kMedium},    {"histogram", wl::ConfigSize::kLarge},
      {"kmeans", wl::ConfigSize::kMedium},     {"matrix-multiply", wl::ConfigSize::kLarge},
      {"string-match", wl::ConfigSize::kLarge}, {"word-count", wl::ConfigSize::kMedium},
  };

  // Column 0, the oracle run, is its row's baseline; it fans out with the rest.
  const auto runs = bench::run_boehm_grid(
      apps,
      {lib::Technique::kOracle, lib::Technique::kProc, lib::Technique::kSpml,
       lib::Technique::kEpml},
      args.scale, args.threads);

  TextTable t({"application", "/proc (%)", "SPML (%)", "EPML (%)"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double ideal = runs[a][0].app_time_us;
    std::vector<double> row;
    for (std::size_t ti = 1; ti < runs[a].size(); ++ti) {
      row.push_back((runs[a][ti].app_time_us - ideal) / ideal * 100.0);
    }
    t.add_row(bench::app_label(apps[a]), row, 1);
  }
  t.print(std::cout);
  std::printf("\nShape check: EPML's overhead is far below /proc's and SPML's on\n"
              "every application.\n");
  return 0;
}

// Figure 5: Boehm GC execution time per technique (/proc, SPML, EPML),
// highlighting the first collection cycle -- where SPML performs the
// reverse mapping -- against the later cycles.
//
// Paper's findings: ignoring the first cycle, SPML outperforms /proc by up
// to 36%; EPML outperforms /proc by up to 58% and SPML by up to 47%.
#include "boehm_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/64);
  bench::print_header("Figure 5", "Boehm GC time per technique (first cycle highlighted)");

  const std::vector<bench::AppConfig> apps = {
      {"GCBench", wl::ConfigSize::kSmall},    {"GCBench", wl::ConfigSize::kMedium},
      {"GCBench", wl::ConfigSize::kLarge},    {"histogram", wl::ConfigSize::kLarge},
      {"word-count", wl::ConfigSize::kMedium}, {"string-match", wl::ConfigSize::kLarge},
  };

  const std::vector<lib::Technique> techs = {lib::Technique::kProc, lib::Technique::kSpml,
                                             lib::Technique::kEpml};
  const auto runs = bench::run_boehm_grid(apps, techs, args.scale, args.threads);

  TextTable t({"application + technique", "cycles", "GC total (ms)", "cycle1 (ms)",
               "later avg (ms)"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (std::size_t ti = 0; ti < techs.size(); ++ti) {
      const bench::BoehmRun& r = runs[a][ti];
      t.add_row(bench::app_label(apps[a]) + " " + std::string(lib::technique_name(techs[ti])),
                {static_cast<double>(r.cycles), r.gc_total_us / 1e3,
                 r.gc_first_cycle_us / 1e3, r.gc_later_avg_us / 1e3},
                2);
    }
  }
  t.print(std::cout);
  std::printf("\nShape check: SPML's cycle 1 dwarfs its later cycles (reverse map);\n"
              "EPML has the lowest GC time overall.\n");
  return 0;
}

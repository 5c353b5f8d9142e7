// Figure 8: complete CRIU checkpoint time per technique, highlighting the
// MD (memory-dump / address-collection) phase -- where SPML pays its
// reverse mapping.
//
// Paper's findings: SPML checkpoints up to 5x slower than /proc (reverse
// mapping is >66% of its MD); EPML is up to 4x faster than /proc and up to
// 13x faster than SPML.
#include <algorithm>

#include "criu_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 8", "CRIU checkpoint time (MD + MW) per technique");

  TextTable t({"application + technique", "MD (ms)", "MW (ms)", "total (ms)"});
  double worst_spml_over_proc = 0, best_proc_over_epml = 0, best_spml_over_epml = 0;

  const auto apps = bench::criu_apps();
  const auto runs = bench::run_criu_grid(apps, args.scale, args.threads);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const std::string_view app = apps[a].first;
    std::vector<double> total;
    for (std::size_t ti = 0; ti < runs[a].size(); ++ti) {
      const criu::CheckpointPhases& p = runs[a][ti].phases;
      total.push_back(p.checkpoint_total().count() / 1e3);
      t.add_row(std::string(app) + " " + std::string(lib::technique_name(bench::kCriuTechs[ti])),
                {p.md.count() / 1e3, p.mw.count() / 1e3, total.back()}, 3);
    }
    const double proc = total[0], spml = total[1], epml = total[2];
    worst_spml_over_proc = std::max(worst_spml_over_proc, spml / proc);
    if (std::find(wl::tkrzw_apps().begin(), wl::tkrzw_apps().end(), app) !=
        wl::tkrzw_apps().end()) {
      // Paper quotes the speedups on the write-heavy tkrzw engines (tiny,
      // baby); read-heavy Phoenix apps have near-empty dirty sets and would
      // make the ratio unboundedly flattering for EPML.
      best_proc_over_epml = std::max(best_proc_over_epml, proc / epml);
      best_spml_over_epml = std::max(best_spml_over_epml, spml / epml);
    }
  }
  t.print(std::cout);
  std::printf("\nSpeedup summary (paper: SPML up to 5x slower than /proc; EPML up to\n"
              "4x faster than /proc and up to 13x faster than SPML):\n");
  std::printf("  SPML slowdown vs /proc : up to %.1fx\n", worst_spml_over_proc);
  std::printf("  EPML speedup vs /proc  : up to %.1fx\n", best_proc_over_epml);
  std::printf("  EPML speedup vs SPML   : up to %.1fx\n", best_spml_over_epml);
  return 0;
}

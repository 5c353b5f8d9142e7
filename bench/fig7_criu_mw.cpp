// Figure 7: CRIU memory-write (MW) time per technique.
//
// Paper's findings: /proc fuses the pagemap walk into MW, so MW grows to
// seconds (up to 5.7s, tiny Large) and with memory size; SPML/EPML collect
// first and then write, so their MW is almost constant -- up to 26x better.
#include "criu_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 7", "CRIU memory-write (MW) phase time per technique");

  const auto apps = bench::criu_apps();
  const auto runs = bench::run_criu_grid(apps, args.scale, args.threads);

  TextTable t({"application", "/proc MW (ms)", "SPML MW (ms)", "EPML MW (ms)",
               "proc/EPML (x)"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<double> mw;
    for (const bench::CriuCell& r : runs[a]) mw.push_back(r.phases.mw.count() / 1e3);
    t.add_row(std::string(apps[a].first), {mw[0], mw[1], mw[2], mw[0] / std::max(mw[2], 1e-9)},
              3);
  }
  t.print(std::cout);
  std::printf("\nShape check: /proc MW >> SPML/EPML MW on every application.\n");
  return 0;
}

// Figure 4: slowdown factor of each tracking technique on the array-parser
// micro-benchmark as the monitored memory grows.
//
// Paper's shape: SPML worst at large sizes (up to 66x, reverse mapping);
// ufd worst below the ~250MB crossover (up to 15x); /proc up to ~4x; EPML
// negligible (max ~0.6%) at every size.
#include "common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Figure 4", "Microbench slowdown (x) per technique vs memory size");

  const std::vector<u64> sizes = bench::memory_sweep(args.full);
  const std::vector<lib::Technique> techs = {lib::Technique::kProc, lib::Technique::kUfd,
                                             lib::Technique::kSpml, lib::Technique::kEpml,
                                             lib::Technique::kOracle};
  const bench::MicroGrid g = bench::run_micro_grid(techs, sizes, args.threads);

  std::vector<std::string> header = {"technique"};
  for (const u64 s : sizes) header.push_back(bench::mem_label(s));
  TextTable t(header);
  for (std::size_t r = 0; r < techs.size(); ++r) {
    std::vector<double> row;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      row.push_back(g.runs[r][c].tracked_time.count() / g.ideal_us[c]);
    }
    t.add_row(std::string(lib::technique_name(techs[r])), row, 2);
  }
  t.print(std::cout);
  std::printf(
      "\nShape check: EPML ~1.0x everywhere; SPML grows fastest with memory;\n"
      "ufd worst below the crossover, SPML worst above it.\n");
  return 0;
}

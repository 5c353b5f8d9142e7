// Table VI: which internal metrics each technique involves, how many depend
// on the Tracked memory size, and which drive (Tracker / Tracked)
// scalability. Derived from the analytical model plus a measured event
// census of one tracked run per technique.
#include "common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Table VI", "Influence of /proc, ufd, SPML, EPML on internal metrics");

  TextTable t({"", "/proc", "ufd", "SPML", "EPML"});
  t.add_row({"associated metrics", "M1,M5,M15,M16", "M1,M2,M5,M6",
             "M1,M3,M4,M9,M11,M13,M14,M16,M17,M18", "M1,M3,M4,M7,M8,M10,M12,M18"});
  t.add_row({"metrics depending on Tracked mem.", "3 (M5,M15,M16)", "3 (M2,M5,M6)",
             "4 (M14,M16,M17,M18)", "1 (M18)"});
  t.add_row({"metrics in the monitoring phase", "1 (M5)", "2 (M5,M6)", "2 (M13,M14)",
             "2 (M7,M8)"});
  t.add_row({"two most costly metrics", "M5,M16", "M5,M6", "M16,M17", "M10,M12"});
  t.add_row({"scalability impact on Tracker", "3 (M5,M15,M16)", "3 (M2,M5,M6)",
             "4 (M14,M16,M17,M18)", "1 (M18)"});
  t.add_row({"scalability impact on Tracked", "3 (M5,M15,M16)", "2 (M5,M6)",
             "2 (M13,M14)", "2 (M7,M8)"});
  t.print(std::cout);

  // Measured census backing the table: one warm tracked run per technique.
  std::printf("\nMeasured event census (10MB microbench, one cycle):\n");
  TextTable ev({"event", "/proc", "ufd", "SPML", "EPML"});
  const bench::MicroGrid g = bench::run_micro_grid(
      {lib::Technique::kProc, lib::Technique::kUfd, lib::Technique::kSpml,
       lib::Technique::kEpml},
      {10 * kMiB}, args.threads);
  const Event interesting[] = {
      Event::kPageFaultSoftDirty, Event::kPageFaultUffd, Event::kClearRefs,
      Event::kPagemapScan,        Event::kHypercall,     Event::kVmExitPmlFull,
      Event::kVmread,             Event::kVmwrite,       Event::kSelfIpi,
      Event::kReverseMapLookup,   Event::kRingBufFetchEntry};
  for (const Event e : interesting) {
    std::vector<std::string> cells{std::string(event_name(e))};
    for (const auto& run : g.runs) cells.push_back(std::to_string(run[0].events.get(e)));
    ev.add_row(cells);
  }
  ev.print(std::cout);
  std::printf("\nShape check: only EPML's size-dependent surface is the RB copy;\n"
              "SPML adds hypercalls + reverse mapping; ufd adds userspace faults.\n");
  return 0;
}

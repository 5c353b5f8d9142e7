// Table I: overhead (%) of ufd- and /proc-based dirty page tracking on
// Tracked and on Tracker, as the monitored memory grows from 1MB to 1GB.
//
// Paper's finding: both overheads grow with memory; ufd reaches ~15x (1463%)
// on Tracked and ~14x (1349%) on Tracker at 1GB; /proc reaches ~4x (335%) on
// Tracked and ~2x (147%) on Tracker.
#include "base/stats.hpp"
#include "common.hpp"

using namespace ooh;
using bench::mem_label;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Table I", "Overhead (%) of ufd and /proc tracking vs memory size");

  const std::vector<u64> sizes = bench::memory_sweep(args.full);
  std::vector<std::string> header = {"On Tracked"};
  for (const u64 s : sizes) header.push_back(mem_label(s));

  TextTable tracked(header);
  header[0] = "On Tracker";
  TextTable tracker(header);

  const std::vector<lib::Technique> techs = {lib::Technique::kUfd, lib::Technique::kProc};
  const bench::MicroGrid g = bench::run_micro_grid(techs, sizes, args.threads);

  for (std::size_t r = 0; r < techs.size(); ++r) {
    std::vector<double> tked_row, tker_row;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      const lib::RunResult& run = g.runs[r][c];
      tked_row.push_back(overhead_pct(run.tracked_time.count(), g.ideal_us[c]));
      tker_row.push_back((run.tracker_time() - run.phases.init).count() / g.ideal_us[c] *
                         100.0);
    }
    const std::string name{lib::technique_name(techs[r])};
    tracked.add_row(name, tked_row, 0);
    tracker.add_row(name, tker_row, 0);
  }
  tracked.print(std::cout);
  std::printf("\n");
  tracker.print(std::cout);
  std::printf("\nShape check: both overheads grow with memory; ufd >> /proc.\n");
  return 0;
}

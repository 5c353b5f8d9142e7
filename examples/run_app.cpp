// CLI driver: run any benchmark application under any tracking technique
// and print a one-page report (times, phases, capture, event census).
//
//   $ ./run_app --app baby --size small --tech epml --scale 64
//   $ ./run_app --app histogram --size large --tech proc --period-ms 5
//   $ ./run_app --list
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "workloads/registry.hpp"

using namespace ooh;

namespace {

struct Options {
  std::string app = "baby";
  wl::ConfigSize size = wl::ConfigSize::kSmall;
  std::optional<lib::Technique> tech = lib::Technique::kEpml;
  u64 scale = 64;
  double period_ms = 0.0;
  bool list = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: run_app [--app NAME] [--size small|medium|large]\n"
      "               [--tech proc|ufd|spml|epml|oracle|none]\n"
      "               [--scale N] [--period-ms MS] [--list]\n");
}

/// Parse the whole of `v` as a number; trailing characters are an error.
template <typename T>
bool parse_number(std::string_view v, T& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return !v.empty() && ec == std::errc{} && end == v.data() + v.size();
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--list") {
      o.list = true;
    } else if (a == "--app") {
      if (const char* v = next()) o.app = v; else return false;
    } else if (a == "--size") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "small") == 0) o.size = wl::ConfigSize::kSmall;
      else if (std::strcmp(v, "medium") == 0) o.size = wl::ConfigSize::kMedium;
      else if (std::strcmp(v, "large") == 0) o.size = wl::ConfigSize::kLarge;
      else return false;
    } else if (a == "--tech") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "proc") == 0) o.tech = lib::Technique::kProc;
      else if (std::strcmp(v, "ufd") == 0) o.tech = lib::Technique::kUfd;
      else if (std::strcmp(v, "spml") == 0) o.tech = lib::Technique::kSpml;
      else if (std::strcmp(v, "epml") == 0) o.tech = lib::Technique::kEpml;
      else if (std::strcmp(v, "oracle") == 0) o.tech = lib::Technique::kOracle;
      else if (std::strcmp(v, "none") == 0) o.tech = std::nullopt;
      else return false;
    } else if (a == "--scale") {
      const char* v = next();
      if (v == nullptr || !parse_number(v, o.scale) || o.scale < 1) return false;
    } else if (a == "--period-ms") {
      const char* v = next();
      if (v == nullptr || !parse_number(v, o.period_ms) || !std::isfinite(o.period_ms) ||
          o.period_ms < 0.0) {
        return false;
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.list) {
    std::printf("applications (Table III):\n");
    for (const wl::WorkloadSpec& s : wl::table3_specs()) {
      std::printf("  %-16s %-7s %8.1f MB\n", std::string(s.app).c_str(),
                  std::string(wl::config_name(s.size)).c_str(),
                  static_cast<double>(s.paper_footprint_bytes) / kMiB);
    }
    std::printf("  %-16s %-7s (microbench, Listing 1)\n", "array-parser", "-");
    return 0;
  }

  lib::TestBed bed;
  auto& kernel = bed.kernel();
  auto& proc = kernel.create_process();
  std::unique_ptr<wl::Workload> w;
  try {
    w = wl::make_workload(o.app, o.size, o.scale);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("app=%s size=%s scale=1/%llu footprint~%.1f MB tech=%s\n",
              o.app.c_str(), std::string(wl::config_name(o.size)).c_str(),
              static_cast<unsigned long long>(o.scale),
              static_cast<double>(w->footprint_bytes()) / kMiB,
              o.tech ? std::string(lib::technique_name(*o.tech)).c_str() : "none");
  w->setup(proc);

  std::unique_ptr<lib::DirtyTracker> tracker;
  if (o.tech) tracker = lib::make_tracker(*o.tech, kernel, proc);
  lib::RunOptions ropts;
  ropts.collect_period = msecs(o.period_ms);
  const lib::RunResult r = lib::run_tracked(kernel, proc, w->runner(), tracker.get(), ropts);

  std::printf("\ntracked time        : %s\n", format_duration(r.tracked_time).c_str());
  if (tracker) {
    std::printf("tracker time        : %s  (init %s | arm %s | collect %s | monitor %s)\n",
                format_duration(r.tracker_time()).c_str(),
                format_duration(r.phases.init).c_str(),
                format_duration(r.phases.arm).c_str(),
                format_duration(r.phases.collect).c_str(),
                format_duration(r.phases.monitor).c_str());
    std::printf("dirty pages         : %llu reported / %llu truth (capture %.1f%%, dropped %llu)\n",
                static_cast<unsigned long long>(r.unique_pages),
                static_cast<unsigned long long>(r.truth_pages),
                r.capture_ratio() * 100.0, static_cast<unsigned long long>(r.dropped));
    tracker->shutdown();
  } else {
    std::printf("dirty pages (truth) : %llu\n",
                static_cast<unsigned long long>(r.truth_pages));
  }
  std::printf("\nevent census:\n%s", r.events.to_string().c_str());
  return 0;
}

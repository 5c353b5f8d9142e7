// Host-time spans the benchmark records around its own calls into the
// simulator's modules. A span is a name ("<module>.<what>"), a start and end
// in the process's CPU time, the span that was open when it began, and the
// operation it belongs to. Spans stay in memory and are written out as
// Chrome trace-event JSON when the run ends.
//
// With tracing off a Span costs one branch: end-to-end metrics are measured
// with it off, and the traced run's extra run time is the tracing overhead.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(HostClock::time_point a,
                                            HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host CPU time the process has used so far, in nanoseconds, kernel time
/// included. Every host time the benchmark reports is read from it. The
/// benchmark runs on one thread and never sleeps or waits for I/O, so over a
/// stretch of its work this is the stretch's wall-clock time less the time
/// the thread stood waiting for a CPU, which only the other tenants of the
/// host decide.
[[nodiscard]] inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double cpu_seconds() noexcept {
  return static_cast<double>(cpu_ns()) * 1e-9;
}

struct SpanRecord {
  const char* name = "";    ///< a string literal: "<module>.<what>".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root.
  std::int64_t op = -1;      ///< operation id within the pass, -1 in set-up.
  std::int32_t pass = 0;
};

class Tracer {
 public:
  Tracer() : epoch_ns_(cpu_ns()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return on_; }
  void set_pass(std::int32_t pass) noexcept { pass_ = pass; }
  void set_op(std::int64_t op) noexcept { op_ = op; }

  /// RAII span: records [construction, destruction) when tracing is on.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }

  /// Self time in seconds (duration minus the time covered by child spans)
  /// summed per span name over the records of the given passes: those inside
  /// operations when `in_ops`, the set-up ones otherwise.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name(
      const std::vector<std::int32_t>& passes, bool in_ops) const;

  /// Write every record as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps). Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       std::string_view workload) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const noexcept { return cpu_ns() - epoch_ns_; }

  bool on_ = false;
  std::int64_t epoch_ns_;
  std::int32_t pass_ = 0;
  std::int64_t op_ = -1;
  std::vector<SpanRecord> records_;
  std::vector<std::int32_t> open_;  ///< indices of the spans still open.
};

/// The module a span belongs to: the part of its name before the first '.'.
[[nodiscard]] std::string_view span_module(std::string_view name);

}  // namespace perfbench

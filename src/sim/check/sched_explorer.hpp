// Deterministic schedule-exploring race checker for the state host worker
// threads share (the epoch claim cursor, the frame table) — the concurrency
// twin of the CoherenceChecker.
//
// A TSan run proves one lucky interleaving clean; this explorer proves the
// *schedule space* clean, loom/relacy-style. A registered scenario declares
// a handful of logical threads running the real implementation
// (epoch::claim_next, PhysicalMemory first touch). The explorer runs
// the scenario over and over, each time forcing a different interleaving:
// every sync-seam operation (src/base/sync.hpp under OOH_SCHED_CHECK) is a
// scheduling point where the explorer decides which logical thread performs
// the next operation. Logical threads are host threads driven by a run
// token — exactly one is ever runnable, so execution is deterministic and
// replayable from the recorded decision sequence.
//
// Exploration = exhaustive DFS over bounded interleavings:
//   * preemption bound (CHESS-style): schedules differ from the
//     nonpreemptive baseline by at most `preemption_bound` involuntary
//     switches. Forced switches (current thread blocked or finished) are
//     free.
//   * DPOR-lite pruning: an operation only branches when its address is
//     already shared (touched by a second thread earlier in the same run)
//     or it is a mutex/await operation or a thread's first step — the
//     prefix-stable approximation of a persistent set. What the pruning
//     misses, the seeded random layer backstops:
//   * `random_runs` seed-replayable random schedules beyond the bound.
//
// Checked properties, reported as Findings by ID:
//   SCHED-RACE      unsynchronized conflicting access pair (RACE-1): plain
//                   accesses whose happens-before is not established by the
//                   *declared* memory orders — modelled with vector clocks
//                   over release/acquire edges, mutexes, fork/join. A
//                   relaxed store where a release is needed is caught here
//                   even though the explorer serialises the host threads.
//                   Freed memory (annotate_free) is a conflicting write to
//                   the whole range, so free-before-join bugs land here.
//   SCHED-LOST      a scenario postcondition failed — e.g. EPOCH-1: every
//                   epoch claimed by exactly one worker, in *every*
//                   interleaving.
//   SCHED-DEADLOCK  all unfinished logical threads blocked (mutex cycle or
//                   await that can never fire).
//   SCHED-LIVELOCK  a single run exceeded max_steps (unbounded spin).
//
// A failing schedule is minimized greedily (drop preemptions while the
// finding reproduces) and printed in replayable form; Explorer::replay runs
// one exact schedule for debugging.
//
// Builds without OOH_SCHED_CHECK still compile this header and the
// scenarios; explore() then reports available() == false and no findings
// (the sync seam emits no events to schedule on). The sched-check CI job
// and tests/test_sched_explorer.cpp run the instrumented build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ooh::check::sched {

struct Options {
  /// Max involuntary context switches per schedule in exhaustive mode.
  unsigned preemption_bound = 2;
  /// Hard cap on fully-executed interleavings (DFS + random together).
  std::uint64_t max_interleavings = 20000;
  /// Seed-replayable random schedules run after (or instead of) the DFS.
  std::uint64_t random_runs = 0;
  std::uint64_t seed = 1;
  /// Disable the DFS (scenarios too big to enumerate run random-only).
  bool exhaustive = true;
  /// Per-run step cap; exceeding it is reported as SCHED-LIVELOCK.
  std::uint64_t max_steps = 200000;
  /// Replay budget for schedule minimization (0 disables).
  unsigned minimize_budget = 200;
};

struct Finding {
  std::string id;       ///< SCHED-RACE / SCHED-LOST / SCHED-DEADLOCK / SCHED-LIVELOCK
  std::string message;  ///< what conflicted or which postcondition failed
  /// The (minimized) decision sequence that reproduces it: logical-thread
  /// ids in scheduling order. Feed to Explorer-style replay via
  /// Options/replay_schedule.
  std::vector<unsigned> schedule;
  /// Nonzero when the schedule came from the random layer: the seed alone
  /// reproduces it.
  std::uint64_t seed = 0;
};

struct Result {
  std::vector<Finding> findings;
  std::uint64_t interleavings = 0;    ///< fully executed schedules
  std::uint64_t decision_points = 0;  ///< scheduling decisions taken (all runs)
  bool exhausted_cap = false;         ///< DFS stopped at max_interleavings
  bool instrumented = false;          ///< built with OOH_SCHED_CHECK

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  [[nodiscard]] const Finding* find(const std::string& id) const noexcept {
    for (const Finding& f : findings) {
      if (f.id == id) return &f;
    }
    return nullptr;
  }
};

class ScenarioRun;
using ScenarioBody = std::function<void(ScenarioRun&)>;

/// Handle the scenario body drives. Lifecycle per interleaving: the body is
/// re-invoked from scratch (fresh state!), declares its logical threads via
/// threads(), then asserts postconditions via expect().
class ScenarioRun {
 public:
  virtual ~ScenarioRun() = default;

  /// Run the logical threads to completion under the explored schedule.
  /// Call exactly once per body invocation.
  virtual void threads(std::vector<std::function<void()>> fns) = 0;

  /// Post-run invariant (checked on the controller after threads() joins):
  /// records a Finding with `id` when !ok. Suppressed when the run was
  /// aborted (deadlock/livelock already reported — state is torn).
  virtual void expect(bool ok, const std::string& id, const std::string& message) = 0;
};

/// Inside a logical thread: mark [addr, addr+bytes) as freed. Conflicts
/// with every access another thread may still make to the range unless
/// happens-before orders them — the free-before-join check. No-op outside
/// an exploration.
void annotate_free(const void* addr, std::size_t bytes);

/// Inside a logical thread: block until `pred` holds. The explorer models
/// this as a wait re-enabled by any atomic store/RMW (condition-variable
/// semantics without spinning through the schedule space). Outside an
/// exploration it spins with std::this_thread::yield.
void await(const std::function<bool()>& pred);

/// True when the build carries sync-seam instrumentation (OOH_SCHED_CHECK).
[[nodiscard]] bool available() noexcept;

/// Explore `body` under `opts`. Thread-compatible: one exploration at a
/// time per process (the seam's hooks are per-thread, but scenarios run
/// real shared state).
Result explore(const std::string& name, const ScenarioBody& body,
               const Options& opts = {});

/// Replay one exact decision sequence (e.g. a Finding::schedule); past the
/// end of `schedule` the run continues nonpreemptively. Returns that single
/// run's findings.
Result replay(const ScenarioBody& body, const std::vector<unsigned>& schedule);

/// "T0x3 T1 T0x2" — compact human-readable schedule form.
[[nodiscard]] std::string format_schedule(const std::vector<unsigned>& schedule);

// ---- registered scenarios ---------------------------------------------------

struct NamedScenario {
  std::string name;
  ScenarioBody body;
  Options opts;
};

/// The built-in concurrency scenarios over the state worker threads share:
/// epoch_claim (the epoch pool's claim cursor) and frame_first_touch (the
/// frame table's first-touch race).
[[nodiscard]] const std::vector<NamedScenario>& builtin_scenarios();

/// Run one built-in scenario by name; throws std::invalid_argument on an
/// unknown name.
Result run_builtin(const std::string& name);

}  // namespace ooh::check::sched

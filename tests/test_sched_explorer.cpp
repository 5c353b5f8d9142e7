// Schedule-explorer tests: the built-in scenarios (the state worker threads
// share) must come out clean across every explored interleaving, and — the
// part that proves the checker itself works — seeded concurrency bugs must
// be caught by ID:
//
//   * an MPSC misuse of an SPSC ring (two producers)   -> SCHED-LOST
//   * a ring publishing its tail with a relaxed store  -> SCHED-RACE
//   * an ABBA lock cycle                               -> SCHED-DEADLOCK
//   * teardown that frees the ring before the drainer
//     is provably done                                 -> SCHED-RACE (freed)
//
// The rings are a test-local SPSC queue templated on its tail store's
// memory order, so the missing-release mutation and its clean twin share one
// definition. Each finding must carry a minimized schedule that replays to
// the same finding. The exploration machinery only exists under
// -DOOH_SCHED_CHECK=ON (the sched-check CI job); in ordinary builds the
// scenarios still run once sequentially and the mutation tests skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "base/sync.hpp"
#include "base/types.hpp"
#include "sim/check/sched_explorer.hpp"

namespace ooh {
namespace {

namespace sched = check::sched;

/// Single-producer/single-consumer ring over the sync seam: two monotonic
/// cursors, the slots annotated as plain data. `TailStore` is the order of
/// the producer's publishing store: release is correct, relaxed is the
/// seeded missing-release bug.
template <std::memory_order TailStore>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : mask_(capacity - 1), slots_(capacity) {}

  bool try_push(u64 value) noexcept {
    // relaxed-ok: tail_ is producer-owned; this thread is its only writer.
    const u64 tail = tail_.load(std::memory_order_relaxed);
    // Acquire pairs with the consumer's head_ release: the slot about to be
    // overwritten on wrap-around is done being read.
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    OOH_SYNC_PLAIN_WRITE(&slots_[tail & mask_]);
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, TailStore);
    return true;
  }

  bool try_pop(u64& out) noexcept {
    // relaxed-ok: head_ is consumer-owned; this thread is its only writer.
    const u64 head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    OOH_SYNC_PLAIN_READ(&slots_[head & mask_]);
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Entries still in the ring; read after the scenario's threads joined.
  /// `<`, not `!=`: a misused ring's tail may fall behind its head.
  [[nodiscard]] std::vector<u64> pending() const {
    std::vector<u64> out;
    const u64 tail = tail_.load(std::memory_order_acquire);
    for (u64 i = head_.load(std::memory_order_acquire); i < tail; ++i) {
      out.push_back(slots_[i & mask_]);
    }
    return out;
  }

 private:
  std::size_t mask_;
  std::vector<u64> slots_;
  sync::Atomic<u64> head_{0};  ///< consumer cursor: total entries popped.
  sync::Atomic<u64> tail_{0};  ///< producer cursor: total entries pushed.
};

using Ring = SpscRing<std::memory_order_release>;
// relaxed-ok: the seeded missing-release mutation under test.
using RelaxedTailRing = SpscRing<std::memory_order_relaxed>;

// ---- the built-in scenarios and a correct SPSC ring are clean --------------

TEST(SchedExplorer, BuiltinScenariosExistAndRunBuiltinRejectsUnknownNames) {
  const auto& scenarios = sched::builtin_scenarios();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].name, "epoch_claim");
  EXPECT_EQ(scenarios[1].name, "frame_first_touch");
  EXPECT_THROW((void)sched::run_builtin("no_such_scenario"),
               std::invalid_argument);
}

/// One producer, one consumer, a deliberately tiny ring: the classic SPSC
/// push/pop race surface. Every pushed value must end up popped, pending or
/// rejected by a full ring, in every interleaving.
void scenario_ring_push_pop(sched::ScenarioRun& run) {
  constexpr u64 kPushes = 5;  // capacity 4 => the full-ring path is reachable
  struct Shared {
    Ring ring{4};
    std::vector<u64> rejected;  ///< producer-private
    std::vector<u64> popped;    ///< consumer-private
  };
  auto sh = std::make_shared<Shared>();
  run.threads({
      [sh] {
        for (u64 v = 1; v <= kPushes; ++v) {
          if (!sh->ring.try_push(v * kPageSize)) sh->rejected.push_back(v * kPageSize);
        }
      },
      [sh] {
        u64 v = 0;
        for (u64 i = 0; i < kPushes + 3; ++i) {
          if (sh->ring.try_pop(v)) sh->popped.push_back(v);
        }
      },
  });
  std::vector<u64> got = sh->ring.pending();
  got.insert(got.end(), sh->popped.begin(), sh->popped.end());
  got.insert(got.end(), sh->rejected.begin(), sh->rejected.end());
  std::sort(got.begin(), got.end());
  std::vector<u64> want;
  for (u64 v = 1; v <= kPushes; ++v) want.push_back(v * kPageSize);
  run.expect(got == want, "SCHED-LOST", "pushed != popped + pending + rejected");
}

TEST(SchedExplorer, RingPushPopCleanAcrossAllBoundedInterleavings) {
  sched::Options opts;
  opts.preemption_bound = 2;
  opts.random_runs = 100;
  const sched::Result r = sched::explore("ring_push_pop", scenario_ring_push_pop, opts);
  EXPECT_EQ(r.instrumented, sched::available());
  for (const sched::Finding& f : r.findings) {
    ADD_FAILURE() << f.id << ": " << f.message << " schedule "
                  << sched::format_schedule(f.schedule);
  }
  if (!sched::available()) return;  // sequential fallback: one run, no claims
  // The DFS must have exhausted the schedule space within the preemption
  // bound — a capped run proves nothing.
  EXPECT_FALSE(r.exhausted_cap);
  EXPECT_GT(r.interleavings, 50u);
  EXPECT_GT(r.decision_points, 1000u);
}

TEST(SchedExplorer, AllBuiltinScenariosComeOutClean) {
  for (const sched::NamedScenario& s : sched::builtin_scenarios()) {
    const sched::Result r = sched::explore(s.name, s.body, s.opts);
    for (const sched::Finding& f : r.findings) {
      ADD_FAILURE() << s.name << ": " << f.id << ": " << f.message
                    << " schedule " << sched::format_schedule(f.schedule);
    }
  }
}

#ifdef OOH_SCHED_CHECK

// ---- seeded mutation: lost update -------------------------------------------

// Two producers on one SPSC ring (an MPSC misuse): both read the same tail,
// write the same slot and publish tail+1 — one entry vanishes in the
// interleavings where their pushes overlap.
void mutation_two_producers(sched::ScenarioRun& run) {
  auto ring = std::make_shared<Ring>(8);  // never full: 4 pushes
  auto popped = std::make_shared<std::vector<u64>>();
  run.threads({
      [ring] {
        (void)ring->try_push(1 * kPageSize);
        (void)ring->try_push(2 * kPageSize);
      },
      [ring] {
        (void)ring->try_push(3 * kPageSize);
        (void)ring->try_push(4 * kPageSize);
      },
      [ring, popped] {
        u64 v = 0;
        for (int i = 0; i < 6; ++i) {
          if (ring->try_pop(v)) popped->push_back(v);
        }
      },
  });
  run.expect(popped->size() + ring->pending().size() == 4, "SCHED-LOST",
             "MPSC misuse of the SPSC ring lost an entry");
}

TEST(SchedExplorerMutation, TwoProducerMisuseIsFlaggedAsLostById) {
  sched::Options opts;
  opts.preemption_bound = 2;
  opts.random_runs = 200;
  const sched::Result r = sched::explore("two_producers",
                                         mutation_two_producers, opts);
  const sched::Finding* lost = r.find("SCHED-LOST");
  ASSERT_NE(lost, nullptr) << "explorer missed the seeded lost update";
  ASSERT_FALSE(lost->schedule.empty());
  // The minimized schedule must replay to the same finding.
  if (lost->seed == 0) {
    const sched::Result again =
        sched::replay(mutation_two_producers, lost->schedule);
    EXPECT_NE(again.find("SCHED-LOST"), nullptr)
        << "minimized schedule " << sched::format_schedule(lost->schedule)
        << " does not reproduce";
  }
  // The concurrent same-slot plain writes are a race in their own right.
  EXPECT_NE(r.find("SCHED-RACE"), nullptr);
}

// ---- seeded mutation: missing release ---------------------------------------

// The ring with its publication edge deliberately weakened: the tail store
// is relaxed, so the consumer's acquire pairs with nothing and the slot read
// is unordered against the slot write. The explorer must flag the race even
// though its own execution is serialized — the vector clocks track the
// *declared* orders, not luck.
template <typename R>
void push_two_pop_four(sched::ScenarioRun& run) {
  auto ring = std::make_shared<R>(4);
  run.threads({
      [ring] {
        (void)ring->try_push(1 * kPageSize);
        (void)ring->try_push(2 * kPageSize);
      },
      [ring] {
        u64 v = 0;
        for (int i = 0; i < 4; ++i) (void)ring->try_pop(v);
      },
  });
}

void mutation_missing_release(sched::ScenarioRun& run) {
  push_two_pop_four<RelaxedTailRing>(run);
}

TEST(SchedExplorerMutation, MissingReleaseOnTailIsFlaggedAsRaceById) {
  sched::Options opts;
  opts.preemption_bound = 2;
  opts.random_runs = 100;
  const sched::Result r = sched::explore("missing_release",
                                         mutation_missing_release, opts);
  const sched::Finding* race = r.find("SCHED-RACE");
  ASSERT_NE(race, nullptr) << "explorer missed the seeded missing release";
  // The declared-order race fires even on the nonpreemptive baseline (the
  // producer's relaxed store severs the edge no matter the schedule), so
  // the minimized schedule may legitimately be empty — replaying it (empty
  // = default schedule) must still reproduce the finding.
  if (race->seed == 0) {
    const sched::Result again =
        sched::replay(mutation_missing_release, race->schedule);
    EXPECT_NE(again.find("SCHED-RACE"), nullptr)
        << "minimized schedule " << sched::format_schedule(race->schedule)
        << " does not reproduce";
  }
}

// The twin control: the very same scenario over the same ring with the
// release store explores clean — proving the race above comes from the
// weakened ordering, not from the checker being trigger-happy.
void control_correct_release(sched::ScenarioRun& run) { push_two_pop_four<Ring>(run); }

TEST(SchedExplorerMutation, CorrectReleasePairIsNotFlagged) {
  sched::Options opts;
  opts.preemption_bound = 2;
  opts.random_runs = 100;
  const sched::Result r = sched::explore("correct_release",
                                         control_correct_release, opts);
  for (const sched::Finding& f : r.findings) {
    ADD_FAILURE() << f.id << ": " << f.message;
  }
}

// ---- seeded mutation: ABBA deadlock -----------------------------------------

void mutation_abba_deadlock(sched::ScenarioRun& run) {
  struct Shared {
    sync::Mutex a;
    sync::Mutex b;
  };
  auto sh = std::make_shared<Shared>();
  run.threads({
      [sh] {
        sh->a.lock();
        sh->b.lock();
        sh->b.unlock();
        sh->a.unlock();
      },
      [sh] {
        sh->b.lock();
        sh->a.lock();
        sh->a.unlock();
        sh->b.unlock();
      },
  });
}

TEST(SchedExplorerMutation, AbbaLockCycleIsFlaggedAsDeadlockById) {
  sched::Options opts;
  opts.preemption_bound = 2;
  const sched::Result r = sched::explore("abba", mutation_abba_deadlock, opts);
  const sched::Finding* dl = r.find("SCHED-DEADLOCK");
  ASSERT_NE(dl, nullptr) << "explorer missed the ABBA cycle";
  ASSERT_FALSE(dl->schedule.empty());
  if (dl->seed == 0) {
    const sched::Result again =
        sched::replay(mutation_abba_deadlock, dl->schedule);
    EXPECT_NE(again.find("SCHED-DEADLOCK"), nullptr);
  }
}

// ---- seeded mutation: teardown frees the ring under the drainer -------------

// A correct teardown joins the drainer (drainer_done edge) before freeing.
// This mutation waits only for the *producer*, so the free is unordered
// against the drainer's pops — the explorer must flag the freed-memory
// access in the interleavings where the free lands mid-drain.
void mutation_early_teardown(sched::ScenarioRun& run) {
  struct Shared {
    std::unique_ptr<Ring> ring = std::make_unique<Ring>(8);
    sync::Atomic<bool> producer_done{false};
    sync::Atomic<bool> drainer_done{false};
  };
  auto sh = std::make_shared<Shared>();
  run.threads({
      [sh] {
        for (u64 v = 1; v <= 3; ++v) (void)sh->ring->try_push(v * kPageSize);
        sh->producer_done.store(true, std::memory_order_release);
      },
      [sh] {
        u64 v = 0;
        for (int i = 0; i < 5; ++i) (void)sh->ring->try_pop(v);
        sh->drainer_done.store(true, std::memory_order_release);
      },
      [sh] {
        // SEEDED BUG: joins the producer, not the drainer.
        sched::await([&] {
          return sh->producer_done.load(std::memory_order_acquire);
        });
        sched::annotate_free(sh->ring.get(), sizeof(Ring));
      },
  });
}

TEST(SchedExplorerMutation, TeardownBeforeDrainerJoinIsFlaggedAsRaceById) {
  sched::Options opts;
  opts.preemption_bound = 2;
  opts.random_runs = 200;
  const sched::Result r = sched::explore("early_teardown",
                                         mutation_early_teardown, opts);
  const sched::Finding* race = r.find("SCHED-RACE");
  ASSERT_NE(race, nullptr) << "explorer missed the early free";
  ASSERT_FALSE(race->schedule.empty());
  if (race->seed == 0) {
    const sched::Result again =
        sched::replay(mutation_early_teardown, race->schedule);
    EXPECT_NE(again.find("SCHED-RACE"), nullptr);
  }
}

// ---- replay and formatting --------------------------------------------------

TEST(SchedExplorer, FormatScheduleCompressesRuns) {
  EXPECT_EQ(sched::format_schedule({0, 0, 0, 1, 0, 0}), "T0x3 T1 T0x2");
  EXPECT_EQ(sched::format_schedule({}), "");
}

#else  // !OOH_SCHED_CHECK

TEST(SchedExplorerMutation, RequiresInstrumentedBuild) {
  GTEST_SKIP() << "mutation self-tests need -DOOH_SCHED_CHECK=ON "
                  "(the sched-check CI job)";
}

#endif  // OOH_SCHED_CHECK

}  // namespace
}  // namespace ooh

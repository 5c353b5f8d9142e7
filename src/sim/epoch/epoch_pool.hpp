// EpochPool: a deterministic-by-construction worker pool for epochs.
//
// Workers claim epoch indices from a shared cursor (the PR 1 ExecContext
// sharding idiom) and write each result into its submission-order slot, so
// the merged output is a pure function of the epoch bodies — real-time
// completion order, worker count, and OS scheduling cannot leak into it
// (invariant EPOCH-1, pinned by the serial-vs-2/4/8-thread tests).
//
// It is the simulator's one worker pool: figure cell fan-out (run_cells)
// and tenant fleets (TestBed::run_tenants) both run on it.
//
// threads <= 1 (or a single epoch) short-circuits to a plain serial loop on
// the calling thread: the N=1 path spawns nothing and touches no atomics.
//
// The cross-thread state (claim cursor, error slot) lives behind the
// sync.hpp seam so instrumented builds let the SchedExplorer drive the
// claim protocol through every interleaving (scenario "epoch_claim" in
// sched_explorer.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "base/sync.hpp"
#include "base/types.hpp"

namespace ooh::epoch {

/// One claim step of the pool protocol: atomically take the next unclaimed
/// epoch index, or n if all are claimed. Factored out so the sched-check
/// scenario exercises the exact production claim path.
[[nodiscard]] inline std::size_t claim_next(sync::Atomic<u64>& cursor, std::size_t n) {
  // relaxed-ok: the cursor only partitions indices between workers; each
  // epoch's inputs are immutable before run() and its result slot is
  // written by exactly one claimant, published by the joining thread.
  const u64 i = cursor.fetch_add(1, std::memory_order_relaxed);
  return i < n ? static_cast<std::size_t>(i) : n;
}

/// Pool options (namespace scope so default arguments may instantiate it
/// inside EpochPool's own definition).
struct Options {
  /// Worker count; 0 picks auto_workers() (capped by epoch count), 1 forces
  /// the serial inline path.
  unsigned threads = 0;
  /// When nonzero, each worker spins a seeded, index-dependent number of
  /// yields before running an epoch — a determinism *test* knob that
  /// shuffles real-time completion order without touching results.
  u64 stagger_seed = 0;
};

class EpochPool {
 public:
  using Options = epoch::Options;

  /// Run body(i) for every i in [0, n) across the worker pool. body must
  /// only write state owned by epoch i (its result slot); the pool provides
  /// the submission-order guarantee, the body provides isolation. The
  /// first-thrown exception (lowest epoch index wins, deterministically)
  /// is rethrown on the calling thread after all workers join.
  static void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                          Options opt = Options());

  /// Map convenience: results vector in submission order.
  template <typename T, typename Fn>
  [[nodiscard]] static std::vector<T> map(std::size_t n, Fn&& fn, Options opt = Options()) {
    std::vector<T> out(n);
    run_indexed(
        n, [&](std::size_t i) { out[i] = fn(i); }, opt);
    return out;
  }

  /// Effective worker count for `n` epochs under `opt`.
  [[nodiscard]] static unsigned workers_for(std::size_t n, Options opt);

  /// The auto-size rule behind `threads == 0`: the hardware concurrency,
  /// or 2 when the platform cannot report it.
  [[nodiscard]] static unsigned auto_workers() noexcept;
};

}  // namespace ooh::epoch

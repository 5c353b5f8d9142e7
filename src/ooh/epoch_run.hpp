// Epoch-parallel execution at the experiment layer.
//
// run_cells(): every figure's fan-out. A figure's independent cells (its
// untracked baselines, then its app x technique or technique x size grid,
// each cell building its own TestBed) run across the epoch worker pool.
// Results land in submission-order slots, so row order — and every byte of
// figure output — is identical to the serial loop (EPOCH-1).
#pragma once

#include <utility>
#include <vector>

#include "sim/epoch/epoch_pool.hpp"

namespace ooh::lib {

/// Worker count for epoch-parallel figure drivers: the OOH_EPOCH_THREADS
/// environment variable when set (1 forces the serial inline path), else 0,
/// which lets EpochPool auto-size to the hardware.
[[nodiscard]] unsigned epoch_threads_from_env() noexcept;

/// Fan a figure's `n` independent cells across the epoch pool, returning
/// results in submission order. Each cell must build its own TestBed (cells
/// share no simulator state); the pool guarantees the output vector — and
/// therefore the emitted figure bytes — cannot depend on worker count or
/// completion order. Thread count comes from OOH_EPOCH_THREADS (see above).
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> run_cells(std::size_t n, Fn&& fn, unsigned threads = 0) {
  epoch::Options opt;
  opt.threads = threads != 0 ? threads : epoch_threads_from_env();
  return epoch::EpochPool::map<T>(n, std::forward<Fn>(fn), opt);
}

}  // namespace ooh::lib

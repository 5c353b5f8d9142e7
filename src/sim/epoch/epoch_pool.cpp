#include "sim/epoch/epoch_pool.hpp"

#include <algorithm>
#include <exception>
#include <thread>

namespace ooh::epoch {

namespace {

/// xorshift64* over (seed, index): a cheap deterministic stagger amount so
/// determinism tests can permute real-time completion order.
u64 stagger_for(u64 seed, std::size_t index) {
  u64 x = seed ^ (static_cast<u64>(index) + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 12;  // xorshift64* tap, not page geometry -- lint: allow(raw-page-constant)
  x ^= x << 25;
  x ^= x >> 27;
  return (x * 0x2545f4914f6cdd1dULL) >> 56;  // 0..255 yields
}

}  // namespace

unsigned EpochPool::auto_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 2;
}

unsigned EpochPool::workers_for(std::size_t n, Options opt) {
  const unsigned t = opt.threads != 0 ? opt.threads : auto_workers();
  return static_cast<unsigned>(std::min<std::size_t>(t, n));
}

void EpochPool::run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                            Options opt) {
  if (n == 0) return;
  const unsigned workers = workers_for(n, opt);
  if (workers <= 1) {
    // Serial inline path: no threads, no atomics touched, and the default
    // for N=1.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  sync::Atomic<u64> cursor{0};
  sync::Mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = n;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = claim_next(cursor, n);
      if (i >= n) return;
      if (opt.stagger_seed != 0) {
        const u64 yields = stagger_for(opt.stagger_seed, i);
        for (u64 y = 0; y < yields; ++y) std::this_thread::yield();
      }
      try {
        body(i);
      } catch (...) {
        // Lowest-index error wins so the rethrown exception is the one the
        // serial loop would have hit first — error paths stay deterministic
        // too. Workers keep draining; epochs are independent by contract.
        sync::SpinGuard lock(err_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ooh::epoch

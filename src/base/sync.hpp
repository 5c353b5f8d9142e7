// The synchronisation seam: every piece of cross-thread state in the
// simulator lives behind these wrappers (invariant SYNC-1,
// docs/invariants.md).
//
// In ordinary builds sync::Atomic<T>, sync::Mutex and sync::SpinGuard
// compile to plain std::atomic / std::mutex / std::lock_guard — every
// method is a one-line inline forwarder, so Release codegen is identical to
// using the std types directly.
//
// Under -DOOH_SCHED_CHECK=ON every load, store, RMW, lock and unlock first
// reports itself — address, kind, declared memory_order — to a per-thread
// instrumentation hook. The deterministic schedule explorer
// (src/sim/check/sched_explorer.hpp) installs that hook on the logical
// threads of a registered scenario, which lets it (a) interleave them at
// every sync operation, (b) model the happens-before graph the *declared*
// orderings build — so a memory_order that is too weak is flagged even
// though the exploring host serialises the threads — and (c) simulate
// mutexes so a blocked logical thread yields to the scheduler instead of
// blocking the OS thread. Threads with no hook installed (everything
// outside an exploration) pay one thread-local pointer test per operation.
//
// The domain lint (tools/lint_domain.py, rule raw-sync-primitive) keeps raw
// std::atomic / std::mutex / std::thread out of src/ except this file and
// the whitelisted thread-spawning call sites, so new concurrent state
// cannot silently bypass the seam.
#pragma once

#include <atomic>
#include <mutex>

namespace ooh::sync {

#ifdef OOH_SCHED_CHECK
namespace detail {

/// Instrumentation interface the schedule explorer implements. Calls happen
/// *before* the underlying operation executes; the explorer may switch
/// logical threads inside the call (token passing), so by the time it
/// returns, the calling thread owns the run token and the operation is the
/// next event in the explored interleaving.
class Hooks {
 public:
  virtual ~Hooks() = default;
  virtual void atomic_load(const void* addr, std::memory_order order) = 0;
  virtual void atomic_store(const void* addr, std::memory_order order) = 0;
  virtual void atomic_rmw(const void* addr, std::memory_order order) = 0;
  /// Non-atomic data that wants race checking (e.g. a ring's slots):
  /// annotated via OOH_SYNC_PLAIN_READ / OOH_SYNC_PLAIN_WRITE.
  virtual void plain_access(const void* addr, bool is_write) = 0;
  /// Simulated mutexes. Return true when the hook handled the operation
  /// (the real std::mutex must then NOT be touched: a blocked logical
  /// thread has to yield to the scheduler, not block the OS thread).
  virtual bool mutex_lock(void* mutex_addr) = 0;
  virtual bool mutex_try_lock(void* mutex_addr, bool& acquired) = 0;
  virtual bool mutex_unlock(void* mutex_addr) = 0;
};

inline thread_local Hooks* t_hooks = nullptr;
[[nodiscard]] inline Hooks* current() noexcept { return t_hooks; }
inline void set_current(Hooks* h) noexcept { t_hooks = h; }

}  // namespace detail

#define OOH_SYNC_PLAIN_READ(addr)                                        \
  do {                                                                   \
    if (::ooh::sync::detail::Hooks* ooh_sync_h = ::ooh::sync::detail::current()) \
      ooh_sync_h->plain_access((addr), /*is_write=*/false);              \
  } while (0)
#define OOH_SYNC_PLAIN_WRITE(addr)                                       \
  do {                                                                   \
    if (::ooh::sync::detail::Hooks* ooh_sync_h = ::ooh::sync::detail::current()) \
      ooh_sync_h->plain_access((addr), /*is_write=*/true);               \
  } while (0)

#else  // !OOH_SCHED_CHECK

#define OOH_SYNC_PLAIN_READ(addr) ((void)0)
#define OOH_SYNC_PLAIN_WRITE(addr) ((void)0)

#endif  // OOH_SCHED_CHECK

/// std::atomic<T> with the instrumentation seam. Same operation set the
/// simulator actually uses (extend as needed); same defaults as std.
template <typename T>
class Atomic {
 public:
  constexpr Atomic() noexcept = default;
  constexpr Atomic(T v) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)

  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  [[nodiscard]] T load(std::memory_order order = std::memory_order_seq_cst) const noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_load(this, order);
#endif
    return v_.load(order);
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_store(this, order);
#endif
    v_.store(v, order);
  }

  T fetch_add(T d, std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_rmw(this, order);
#endif
    return v_.fetch_add(d, order);
  }

  T fetch_sub(T d, std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_rmw(this, order);
#endif
    return v_.fetch_sub(d, order);
  }

  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_rmw(this, order);
#endif
    return v_.exchange(v, order);
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_rmw(this, order);
#endif
    return v_.compare_exchange_weak(expected, desired, order);
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order order = std::memory_order_seq_cst) noexcept {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) h->atomic_rmw(this, order);
#endif
    return v_.compare_exchange_strong(expected, desired, order);
  }

 private:
  std::atomic<T> v_{};
};

/// std::mutex with the instrumentation seam. Under an active explorer hook
/// the real mutex is bypassed entirely and lock ownership is simulated by
/// the scheduler (all logical threads of a scenario are hook-managed, so
/// the two worlds never mix on one Mutex during an exploration).
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) {
      if (h->mutex_lock(this)) return;
    }
#endif
    m_.lock();
  }

  [[nodiscard]] bool try_lock() {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) {
      bool acquired = false;
      if (h->mutex_try_lock(this, acquired)) return acquired;
    }
#endif
    return m_.try_lock();
  }

  void unlock() {
#ifdef OOH_SCHED_CHECK
    if (detail::Hooks* h = detail::current()) {
      if (h->mutex_unlock(this)) return;
    }
#endif
    m_.unlock();
  }

 private:
  std::mutex m_;
};

/// Scoped lock over sync::Mutex — the seam's std::lock_guard.
class SpinGuard {
 public:
  explicit SpinGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~SpinGuard() { m_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  Mutex& m_;
};

}  // namespace ooh::sync

// The deterministic schedule explorer (see sched_explorer.hpp for the
// model). Implementation notes:
//
//  * Logical threads are real host threads driven by a run token: exactly
//    one thread is ever runnable, everything else is parked on the engine's
//    condition variable. Every sync-seam event re-enters the engine, which
//    decides who performs the next event — so a recorded decision sequence
//    (one logical-thread id per event) replays an execution exactly.
//
//  * Happens-before is tracked with vector clocks over the *declared*
//    orderings (FastTrack-style, simplified): a release store publishes the
//    writer's clock on the location, an acquire load joins it, a relaxed
//    store *clears* it (that is the whole point — a missing release is a
//    flagged race even though the host serialises everything), relaxed RMWs
//    continue a release sequence. Mutexes carry a clock across
//    unlock -> lock. Plain accesses (OOH_SYNC_PLAIN_READ/WRITE annotations)
//    are checked for HB against the last write and the reads since.
//
//  * Nothing here throws through the instrumented code: a scenario's
//    noexcept operations must survive a mid-run abort. On deadlock/livelock
//    the engine records the finding, force-readies every blocked thread and
//    free-runs the remainder round-robin — still token-serialised, so torn
//    scenario state is never touched by two host threads at once.
//    Postconditions of an aborted run are suppressed.
//
//  * annotate_free models a free without performing one: scenarios keep the
//    object alive for the whole run, so a flagged use-after-free is a
//    vector-clock fact, never real heap UB inside the checker.
#include "sim/check/sched_explorer.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "base/sync.hpp"
#include "base/types.hpp"
#include "sim/epoch/epoch_pool.hpp"
#include "sim/phys_mem.hpp"

namespace ooh::check::sched {

#ifdef OOH_SCHED_CHECK

namespace {

thread_local int t_tid = -1;  ///< logical-thread id on scenario threads.

using Vc = std::vector<u64>;

void vc_join(Vc& into, const Vc& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

/// One recorded memory event: who and at what clock.
struct Access {
  unsigned tid = 0;
  Vc vc;
};

/// Did `a` happen-before the thread currently at clock `now`?
bool happened_before(const Access& a, const Vc& now) {
  const u64 seen = a.tid < now.size() ? now[a.tid] : 0;
  const u64 epoch = a.tid < a.vc.size() ? a.vc[a.tid] : 0;
  return seen >= epoch;
}

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool is_acquire(std::memory_order o) {
  return o == std::memory_order_acquire || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst || o == std::memory_order_consume;
}
bool is_release(std::memory_order o) {
  return o == std::memory_order_release || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst;
}

class Engine final : public sync::detail::Hooks, public ScenarioRun {
 public:
  Result run_exploration(const ScenarioBody& body, const Options& opts) {
    opts_ = opts;
    body_ = &body;
    result_ = Result{};
    result_.instrumented = true;
    seen_ids_.clear();
    if (opts_.exhaustive) {
      mode_ = Mode::kDfs;
      path_.clear();
      stack_.clear();
      for (;;) {
        run_once();
        ++result_.interleavings;
        if (result_.interleavings >= opts_.max_interleavings) {
          result_.exhausted_cap = true;
          break;
        }
        while (!stack_.empty() && stack_.back().alts.empty()) stack_.pop_back();
        if (stack_.empty()) break;
        Branch& b = stack_.back();
        path_ = b.prefix;
        path_.push_back(b.alts.back());
        b.alts.pop_back();
      }
    }
    mode_ = Mode::kRandom;
    for (u64 r = 0; r < opts_.random_runs &&
                    result_.interleavings < opts_.max_interleavings;
         ++r) {
      run_seed_ = opts_.seed + r;
      rng_ = splitmix64(run_seed_);
      path_.clear();
      run_once();
      ++result_.interleavings;
    }
    if (opts_.minimize_budget > 0) {
      mode_ = Mode::kReplay;
      for (Finding& f : result_.findings) {
        if (f.seed == 0 && !f.schedule.empty()) minimize(f);
      }
    }
    return result_;
  }

  Result run_replay(const ScenarioBody& body,
                    const std::vector<unsigned>& schedule) {
    opts_ = Options{};
    opts_.minimize_budget = 0;
    body_ = &body;
    result_ = Result{};
    result_.instrumented = true;
    seen_ids_.clear();
    mode_ = Mode::kReplay;
    path_ = schedule;
    run_once();
    result_.interleavings = 1;
    return result_;
  }

  // ---- ScenarioRun --------------------------------------------------------

  void threads(std::vector<std::function<void()>> fns) override {
    const unsigned n = static_cast<unsigned>(fns.size());
    std::vector<std::thread> hosts;
    hosts.reserve(n);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      threads_.clear();
      for (unsigned i = 0; i < n; ++i) {
        auto th = std::make_unique<Th>();
        th->vc.assign(n, 0);
        th->vc[i] = 1;
        threads_.push_back(std::move(th));
      }
      active_ = kNobody;
      run_done_ = false;
    }
    for (unsigned i = 0; i < n; ++i) {
      hosts.emplace_back([this, i, fn = std::move(fns[i])] { thread_main(i, fn); });
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      pick_and_grant_locked();  // decision 0: who starts
      cv_.wait(lk, [&] { return run_done_; });
    }
    for (std::thread& h : hosts) h.join();
  }

  void expect(bool ok, const std::string& id, const std::string& message) override {
    if (ok) return;
    const std::lock_guard<std::mutex> lk(mu_);
    // An aborted run's state is torn by construction; the deadlock/livelock
    // finding already explains it.
    if (run_aborted_) return;
    record_finding_locked(id, message);
  }

  // ---- sync::detail::Hooks ------------------------------------------------

  void atomic_load(const void* addr, std::memory_order order) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, shared_locked(addr));
    Th& me = self();
    bump_clock(me);
    check_freed_locked(addr, "atomic load");
    Loc& l = locs_[addr];
    l.touchers.insert(static_cast<unsigned>(t_tid));
    if (is_acquire(order) && l.sync_valid) vc_join(me.vc, l.sync_vc);
  }

  void atomic_store(const void* addr, std::memory_order order) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, shared_locked(addr));
    Th& me = self();
    bump_clock(me);
    check_freed_locked(addr, "atomic store");
    Loc& l = locs_[addr];
    l.touchers.insert(static_cast<unsigned>(t_tid));
    if (is_release(order)) {
      l.sync_vc = me.vc;
      l.sync_valid = true;
    } else {
      // A relaxed store publishes nothing: it severs the location's
      // release history, which is exactly how a missing release becomes a
      // visible race downstream.
      l.sync_valid = false;
      l.sync_vc.clear();
    }
    ready_awaiters_locked();
  }

  void atomic_rmw(const void* addr, std::memory_order order) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, shared_locked(addr));
    Th& me = self();
    bump_clock(me);
    check_freed_locked(addr, "atomic rmw");
    Loc& l = locs_[addr];
    l.touchers.insert(static_cast<unsigned>(t_tid));
    if (is_acquire(order) && l.sync_valid) vc_join(me.vc, l.sync_vc);
    if (is_release(order)) {
      if (l.sync_valid) {
        vc_join(l.sync_vc, me.vc);
      } else {
        l.sync_vc = me.vc;
        l.sync_valid = true;
      }
    }
    // A relaxed RMW continues an existing release sequence (C++20
    // [atomics.order]), so it neither clears nor extends sync_vc.
    ready_awaiters_locked();
  }

  void plain_access(const void* addr, bool is_write) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, shared_locked(addr));
    Th& me = self();
    bump_clock(me);
    check_freed_locked(addr, is_write ? "plain write" : "plain read");
    Loc& l = locs_[addr];
    const unsigned tid = static_cast<unsigned>(t_tid);
    l.touchers.insert(tid);
    if (l.has_write && l.last_write.tid != tid &&
        !happened_before(l.last_write, me.vc)) {
      record_race_locked(addr, l.last_write.tid, "write", tid,
                         is_write ? "write" : "read");
    }
    if (is_write) {
      for (const Access& r : l.reads) {
        if (r.tid != tid && !happened_before(r, me.vc)) {
          record_race_locked(addr, r.tid, "read", tid, "write");
        }
      }
      l.last_write = Access{tid, me.vc};
      l.has_write = true;
      l.reads.clear();
    } else {
      l.reads.push_back(Access{tid, me.vc});
    }
  }

  bool mutex_lock(void* mutex_addr) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, true);
    Th& me = self();
    Mx& m = mutexes_[mutex_addr];
    while (m.held && !abort_) {
      me.state = St::kBlockedMutex;
      me.wait_mutex = mutex_addr;
      pick_and_grant_locked();
      cv_.wait(lk, [&] { return active_ == t_tid; });
      me.state = St::kRunning;
      me.wait_mutex = nullptr;
    }
    // Post-abort free-for-all: proceed regardless so the run can drain.
    m.held = true;
    m.owner = static_cast<unsigned>(t_tid);
    bump_clock(me);
    vc_join(me.vc, m.vc);
    return true;
  }

  bool mutex_try_lock(void* mutex_addr, bool& acquired) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, true);
    Th& me = self();
    Mx& m = mutexes_[mutex_addr];
    if (m.held) {
      acquired = false;
      return true;
    }
    m.held = true;
    m.owner = static_cast<unsigned>(t_tid);
    bump_clock(me);
    vc_join(me.vc, m.vc);
    acquired = true;
    return true;
  }

  bool mutex_unlock(void* mutex_addr) override {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, true);
    Th& me = self();
    Mx& m = mutexes_[mutex_addr];
    bump_clock(me);
    vc_join(m.vc, me.vc);  // release edge carried to the next owner
    m.held = false;
    for (auto& th : threads_) {
      if (th->state == St::kBlockedMutex && th->wait_mutex == mutex_addr) {
        th->state = St::kReady;
        th->wait_mutex = nullptr;
      }
    }
    return true;
  }

  // ---- scenario-facing extras --------------------------------------------

  void do_await(const std::function<bool()>& pred) {
    for (;;) {
      if (pred()) return;  // pred's loads are themselves hooked events
      std::unique_lock<std::mutex> lk(mu_);
      if (abort_) return;  // forced release; finding already recorded
      Th& me = self();
      bump_steps_locked();
      me.state = St::kAwait;
      pick_and_grant_locked();
      cv_.wait(lk, [&] { return active_ == t_tid; });
      me.state = St::kRunning;
    }
  }

  void do_annotate_free(const void* addr, std::size_t bytes) {
    std::unique_lock<std::mutex> lk(mu_);
    sched_point_locked(lk, true);
    Th& me = self();
    bump_clock(me);
    const unsigned tid = static_cast<unsigned>(t_tid);
    freed_.push_back(FreeRange{static_cast<const char*>(addr), bytes, tid, me.vc});
    // Backward check: accesses already made to the range by other threads
    // must be ordered before the free.
    for (const auto& [laddr, l] : locs_) {
      if (!covers(freed_.back(), laddr)) continue;
      if (l.has_write && l.last_write.tid != tid &&
          !happened_before(l.last_write, me.vc)) {
        record_race_locked(laddr, l.last_write.tid, "write", tid, "free");
      }
      for (const Access& r : l.reads) {
        if (r.tid != tid && !happened_before(r, me.vc)) {
          record_race_locked(laddr, r.tid, "read", tid, "free");
        }
      }
    }
  }

  [[nodiscard]] static Engine* active_on_this_thread() {
    return t_tid >= 0 ? g_active : nullptr;
  }

  static Engine* g_active;  ///< one exploration at a time per process.

 private:
  static constexpr int kNobody = -1;
  static constexpr int kRunOver = -2;

  enum class Mode { kDfs, kRandom, kReplay };
  enum class St { kReady, kRunning, kBlockedMutex, kAwait, kFinished };

  struct Th {
    St state = St::kReady;
    void* wait_mutex = nullptr;
    Vc vc;
  };
  struct Loc {
    Vc sync_vc;              ///< release history (valid when sync_valid)
    bool sync_valid = false;
    Access last_write;
    bool has_write = false;
    std::vector<Access> reads;     ///< reads since last_write
    std::set<unsigned> touchers;   ///< threads that touched it this run
  };
  struct Mx {
    bool held = false;
    unsigned owner = 0;
    Vc vc;  ///< clock carried unlock -> next lock
  };
  struct FreeRange {
    const char* base;
    std::size_t len;
    unsigned tid;
    Vc vc;
  };
  struct Branch {
    std::vector<unsigned> prefix;  ///< decisions before this point
    std::vector<unsigned> alts;    ///< unexplored choices at this point
  };

  static bool covers(const FreeRange& f, const void* addr) {
    const char* p = static_cast<const char*>(addr);
    return p >= f.base && p < f.base + f.len;
  }

  Th& self() { return *threads_[static_cast<unsigned>(t_tid)]; }

  void bump_clock(Th& t) {
    const auto tid = static_cast<std::size_t>(t_tid);
    if (t.vc.size() <= tid) t.vc.resize(tid + 1, 0);
    ++t.vc[tid];
  }

  /// Address already shared this run? (DPOR-lite branch filter: prefix-
  /// stable, because earlier events in the same run determine it.)
  bool shared_locked(const void* addr) {
    const auto it = locs_.find(addr);
    if (it == locs_.end()) return false;
    const auto& touchers = it->second.touchers;
    if (touchers.size() >= 2) return true;
    return touchers.size() == 1 &&
           *touchers.begin() != static_cast<unsigned>(t_tid);
  }

  void run_once() {
    trace_.clear();
    replay_idx_ = 0;
    steps_ = 0;
    preemptions_ = 0;
    abort_ = false;
    run_aborted_ = false;
    locs_.clear();
    mutexes_.clear();
    freed_.clear();
    run_finding_ids_.clear();
    (*body_)(*this);
  }

  void thread_main(unsigned tid, const std::function<void()>& fn) {
    t_tid = static_cast<int>(tid);
    sync::detail::set_current(this);
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return active_ == t_tid; });
      threads_[tid]->state = St::kRunning;
    }
    try {
      fn();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lk(mu_);
      record_finding_locked("SCHED-LOST",
                            std::string("scenario thread threw: ") + e.what());
    } catch (...) {
      const std::lock_guard<std::mutex> lk(mu_);
      record_finding_locked("SCHED-LOST", "scenario thread threw");
    }
    {
      const std::lock_guard<std::mutex> lk(mu_);
      threads_[tid]->state = St::kFinished;
      pick_and_grant_locked();
    }
    sync::detail::set_current(nullptr);
    t_tid = -1;
  }

  /// Voluntary scheduling point: the calling thread is runnable and about
  /// to perform an event; decide who performs the next event instead.
  void sched_point_locked(std::unique_lock<std::mutex>& lk, bool branchable) {
    bump_steps_locked();
    if (abort_) return;  // free-run: current thread keeps the token
    Th& me = self();
    me.state = St::kReady;
    const unsigned next = decide_locked(/*cur_enabled=*/true, branchable);
    grant_locked(static_cast<int>(next));
    if (active_ != t_tid) cv_.wait(lk, [&] { return active_ == t_tid; });
    me.state = St::kRunning;
  }

  /// Forced switch: current thread just blocked or finished (or is the
  /// controller at decision 0). Pick among the ready threads; handle
  /// run-over and deadlock.
  void pick_and_grant_locked() {
    std::vector<unsigned> enabled = enabled_locked();
    if (enabled.empty()) {
      bool all_finished = true;
      for (const auto& th : threads_) {
        if (th->state != St::kFinished) all_finished = false;
      }
      if (all_finished) {
        run_done_ = true;
        active_ = kRunOver;
        cv_.notify_all();
        return;
      }
      // Every unfinished thread is blocked: a genuine deadlock. Record it,
      // then force-ready the blocked threads and free-run to completion
      // (still token-serialised) so the host threads can be joined.
      if (!abort_) {
        record_finding_locked("SCHED-DEADLOCK",
                              "all unfinished logical threads blocked "
                              "(mutex cycle or await that cannot fire)");
        abort_ = true;
        run_aborted_ = true;
      }
      for (auto& th : threads_) {
        if (th->state == St::kBlockedMutex || th->state == St::kAwait) {
          th->state = St::kReady;
          th->wait_mutex = nullptr;
        }
      }
      enabled = enabled_locked();
      if (enabled.empty()) return;  // defensive; cannot happen
      grant_locked(static_cast<int>(enabled.front()));
      return;
    }
    if (abort_) {
      // Round-robin keeps every thread progressing toward the end.
      grant_locked(static_cast<int>(round_robin_locked(enabled)));
      return;
    }
    const unsigned next = decide_locked(/*cur_enabled=*/false, true);
    grant_locked(static_cast<int>(next));
  }

  std::vector<unsigned> enabled_locked() const {
    std::vector<unsigned> out;
    for (unsigned i = 0; i < threads_.size(); ++i) {
      if (threads_[i]->state == St::kReady) out.push_back(i);
    }
    return out;
  }

  unsigned round_robin_locked(const std::vector<unsigned>& enabled) const {
    for (const unsigned e : enabled) {
      if (static_cast<int>(e) > active_) return e;
    }
    return enabled.front();
  }

  /// The heart of exploration: pick the next thread to run. `cur_enabled`
  /// means the calling thread could continue (switching away from it is a
  /// preemption, charged against the bound); a forced switch is free and
  /// always a branch point.
  unsigned decide_locked(bool cur_enabled, bool branchable) {
    const std::vector<unsigned> enabled = enabled_locked();
    unsigned next;
    if (replay_idx_ < path_.size()) {
      const unsigned want = path_[replay_idx_++];
      next = std::find(enabled.begin(), enabled.end(), want) != enabled.end()
                 ? want
                 : default_choice(enabled, cur_enabled);
    } else if (mode_ == Mode::kRandom) {
      rng_ = splitmix64(rng_);
      next = enabled[rng_ % enabled.size()];
    } else {
      next = default_choice(enabled, cur_enabled);
      if (mode_ == Mode::kDfs) {
        const bool may_preempt =
            !cur_enabled || preemptions_ < opts_.preemption_bound;
        if (may_preempt && branchable && enabled.size() > 1) {
          Branch b;
          b.prefix = trace_;
          for (const unsigned e : enabled) {
            if (e != next) b.alts.push_back(e);
          }
          stack_.push_back(std::move(b));
        }
      }
    }
    if (cur_enabled && next != static_cast<unsigned>(t_tid)) ++preemptions_;
    trace_.push_back(next);
    ++result_.decision_points;
    return next;
  }

  unsigned default_choice(const std::vector<unsigned>& enabled,
                          bool cur_enabled) const {
    if (cur_enabled) return static_cast<unsigned>(t_tid);
    return enabled.front();
  }

  void grant_locked(int next) {
    active_ = next;
    cv_.notify_all();
  }

  void bump_steps_locked() {
    if (++steps_ <= opts_.max_steps || abort_) return;
    record_finding_locked("SCHED-LIVELOCK",
                          "run exceeded max_steps (unbounded spin?)");
    abort_ = true;
    run_aborted_ = true;
    for (auto& th : threads_) {
      if (th->state == St::kBlockedMutex || th->state == St::kAwait) {
        th->state = St::kReady;
        th->wait_mutex = nullptr;
      }
    }
  }

  void ready_awaiters_locked() {
    for (auto& th : threads_) {
      if (th->state == St::kAwait) th->state = St::kReady;
    }
  }

  void check_freed_locked(const void* addr, const char* what) {
    for (const FreeRange& f : freed_) {
      if (!covers(f, addr)) continue;
      std::ostringstream os;
      os << what << " by T" << t_tid << " touches memory freed by T" << f.tid
         << " (free-before-join hazard)";
      record_finding_locked("SCHED-RACE", os.str());
      return;
    }
  }

  void record_race_locked(const void* addr, unsigned tid_a, const char* kind_a,
                          unsigned tid_b, const char* kind_b) {
    std::ostringstream os;
    os << "unsynchronized " << kind_a << " by T" << tid_a << " and " << kind_b
       << " by T" << tid_b << " at " << addr
       << " (no happens-before from the declared memory orders)";
    record_finding_locked("SCHED-RACE", os.str());
  }

  void record_finding_locked(const std::string& id, const std::string& message) {
    run_finding_ids_.insert(id);
    if (!seen_ids_.insert(id).second) return;  // first occurrence wins
    Finding f;
    f.id = id;
    f.message = message;
    f.schedule = trace_;
    f.seed = mode_ == Mode::kRandom ? run_seed_ : 0;
    result_.findings.push_back(std::move(f));
  }

  /// Greedy shrink: drop decisions (latest first) and truncate the tail
  /// while the finding still reproduces, bounded by minimize_budget replays.
  void minimize(Finding& f) {
    unsigned budget = opts_.minimize_budget;
    std::vector<unsigned> cur = f.schedule;
    const auto reproduces = [&](const std::vector<unsigned>& cand) {
      path_ = cand;
      run_once();
      return run_finding_ids_.count(f.id) > 0;
    };
    // Truncate from the back first: replay continues nonpreemptively.
    while (!cur.empty() && budget > 0) {
      std::vector<unsigned> cand(cur.begin(), cur.end() - 1);
      --budget;
      if (!reproduces(cand)) break;
      cur = std::move(cand);
    }
    // Then drop interior decisions, latest first.
    for (std::size_t i = cur.size(); i-- > 0 && budget > 0;) {
      std::vector<unsigned> cand = cur;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      --budget;
      if (reproduces(cand)) cur = std::move(cand);
    }
    f.schedule = std::move(cur);
  }

  // ---- engine state -------------------------------------------------------

  Options opts_;
  const ScenarioBody* body_ = nullptr;
  Result result_;
  Mode mode_ = Mode::kDfs;
  std::set<std::string> seen_ids_;

  // DFS state (across runs).
  std::vector<Branch> stack_;
  std::vector<unsigned> path_;
  u64 rng_ = 0;
  u64 run_seed_ = 0;

  // Per-run state. mu_ guards everything below plus threads_/active_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Th>> threads_;
  int active_ = kNobody;
  bool run_done_ = false;
  bool abort_ = false;
  bool run_aborted_ = false;
  u64 steps_ = 0;
  unsigned preemptions_ = 0;
  std::size_t replay_idx_ = 0;
  std::vector<unsigned> trace_;
  std::map<const void*, Loc> locs_;
  std::map<void*, Mx> mutexes_;
  std::vector<FreeRange> freed_;
  std::set<std::string> run_finding_ids_;
};

Engine* Engine::g_active = nullptr;

}  // namespace

#endif  // OOH_SCHED_CHECK

// ---- public surface ---------------------------------------------------------

#ifndef OOH_SCHED_CHECK
namespace {

/// Fallback for uninstrumented builds: the scenario runs once, its threads
/// executed sequentially in declaration order (scenarios are written so
/// that order satisfies every await), and only the postconditions checked.
class SequentialRun final : public ScenarioRun {
 public:
  explicit SequentialRun(Result& result) : result_(result) {}

  void threads(std::vector<std::function<void()>> fns) override {
    for (auto& fn : fns) fn();
  }

  void expect(bool ok, const std::string& id, const std::string& message) override {
    if (ok) return;
    Finding f;
    f.id = id;
    f.message = message;
    result_.findings.push_back(std::move(f));
  }

 private:
  Result& result_;
};

}  // namespace
#endif  // !OOH_SCHED_CHECK

bool available() noexcept {
#ifdef OOH_SCHED_CHECK
  return true;
#else
  return false;
#endif
}

void annotate_free(const void* addr, std::size_t bytes) {
#ifdef OOH_SCHED_CHECK
  if (Engine* e = Engine::active_on_this_thread()) {
    e->do_annotate_free(addr, bytes);
    return;
  }
#endif
  (void)addr;
  (void)bytes;
}

void await(const std::function<bool()>& pred) {
#ifdef OOH_SCHED_CHECK
  if (Engine* e = Engine::active_on_this_thread()) {
    e->do_await(pred);
    return;
  }
#endif
  while (!pred()) std::this_thread::yield();
}

Result explore(const std::string& name, const ScenarioBody& body,
               const Options& opts) {
  (void)name;
#ifdef OOH_SCHED_CHECK
  Engine engine;
  Engine::g_active = &engine;
  Result r = engine.run_exploration(body, opts);
  Engine::g_active = nullptr;
  return r;
#else
  (void)opts;
  Result r;
  r.interleavings = 1;
  SequentialRun run(r);
  body(run);
  return r;
#endif
}

Result replay(const ScenarioBody& body, const std::vector<unsigned>& schedule) {
#ifdef OOH_SCHED_CHECK
  Engine engine;
  Engine::g_active = &engine;
  Result r = engine.run_replay(body, schedule);
  Engine::g_active = nullptr;
  return r;
#else
  (void)schedule;
  Result r;
  r.interleavings = 1;
  SequentialRun run(r);
  body(run);
  return r;
#endif
}

std::string format_schedule(const std::vector<unsigned>& schedule) {
  std::ostringstream os;
  std::size_t i = 0;
  while (i < schedule.size()) {
    std::size_t j = i;
    while (j < schedule.size() && schedule[j] == schedule[i]) ++j;
    if (i != 0) os << ' ';
    os << 'T' << schedule[i];
    if (j - i > 1) os << 'x' << (j - i);
    i = j;
  }
  return os.str();
}

// ---- built-in scenarios -----------------------------------------------------

namespace {

/// The epoch worker pool's cross-thread surface: two workers partition
/// epochs through the production epoch::claim_next cursor and write each
/// epoch's (privately owned) frame of the shared PhysicalMemory. Checked in
/// every interleaving: the cursor hands each epoch to exactly one worker
/// (EPOCH-1).
void scenario_epoch_claim(ScenarioRun& run) {
  constexpr std::size_t kEpochs = 3;
  struct Shared {
    sim::PhysicalMemory pmem{64 * kPageSize};
    sync::Atomic<u64> cursor{0};
    std::array<sync::Atomic<u64>, kEpochs> claims{};
  };
  auto sh = std::make_shared<Shared>();
  const auto worker = [sh] {
    for (;;) {
      const std::size_t i = epoch::claim_next(sh->cursor, kEpochs);
      if (i == kEpochs) break;
      // Epoch i's body: mutate only state epoch i owns (its frame).
      sh->pmem.frame_data(i * kPageSize)[0] = static_cast<u8>(0xE0 + i);
      // relaxed-ok: claim multiplicity counter, read only after join.
      sh->claims[i].fetch_add(1, std::memory_order_relaxed);
    }
  };
  run.threads({worker, worker});
  for (std::size_t i = 0; i < kEpochs; ++i) {
    // relaxed-ok: post-join read; the pool join is the publication edge.
    run.expect(sh->claims[i].load(std::memory_order_relaxed) == 1, "SCHED-LOST",
               "EPOCH-1: claim cursor handed an epoch to != 1 worker");
  }
}

/// Two logical threads materialise two frames of one empty frame-table
/// chunk: both race to install the chunk by CAS. Checked in every
/// interleaving: both contents survive and exactly one chunk is installed.
void scenario_frame_first_touch(ScenarioRun& run) {
  // Frames 1 and 2: both in chunk 0 (frame 0 is the reserved one).
  const auto frame = [](std::size_t i) { return (i + 1) * kPageSize; };
  auto pmem = std::make_shared<sim::PhysicalMemory>(64 * kPageSize);
  const auto toucher = [pmem, frame](std::size_t i) {
    return [pmem, frame, i] { pmem->frame_data(frame(i))[0] = static_cast<u8>(0xF0 + i); };
  };
  run.threads({toucher(0), toucher(1)});
  for (std::size_t i = 0; i < 2; ++i) {
    const u8* data = pmem->frame_data_if_present(frame(i));
    run.expect(data != nullptr && data[0] == 0xF0 + i, "SCHED-LOST",
               "FRAME-TABLE: a racing first touch lost its frame contents");
  }
  run.expect(pmem->installed_chunks() == 1, "SCHED-LOST",
             "FRAME-TABLE: racing first touches installed != 1 chunk");
}

std::vector<NamedScenario> make_builtin_scenarios() {
  std::vector<NamedScenario> out;
  {
    Options o;
    o.preemption_bound = 2;
    o.random_runs = 80;
    o.max_interleavings = 8000;
    out.push_back({"epoch_claim", scenario_epoch_claim, o});
  }
  {
    Options o;
    o.preemption_bound = 2;
    o.random_runs = 50;
    out.push_back({"frame_first_touch", scenario_frame_first_touch, o});
  }
  return out;
}

}  // namespace

const std::vector<NamedScenario>& builtin_scenarios() {
  static const std::vector<NamedScenario> kScenarios = make_builtin_scenarios();
  return kScenarios;
}

Result run_builtin(const std::string& name) {
  for (const NamedScenario& s : builtin_scenarios()) {
    if (s.name == name) return explore(s.name, s.body, s.opts);
  }
  throw std::invalid_argument("unknown scheduler scenario: " + name);
}

}  // namespace ooh::check::sched

// The experiment-wide virtual clock.
//
// Every simulated CPU action (page walk, VM-exit, hypercall, disk write,
// workload compute) charges time here. Attribution scopes let higher layers
// split the same timeline into "Tracked work" vs "Tracker work" vs
// per-phase buckets without a second clock.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"

namespace ooh {

class VirtualClock {
 public:
  VirtualClock() = default;

  /// Current virtual time since experiment start.
  [[nodiscard]] VirtDuration now() const noexcept { return now_; }

  /// Advance time by `d` (>= 0), crediting every open attribution bucket.
  void advance(VirtDuration d) noexcept {
    assert(d.count() >= 0.0);
    now_ += d;
    for (auto* b : open_buckets_) *b += d;
  }

  /// What advance_pairs() applied: `done` repetitions were begun, and
  /// `reached` says the last one stopped after its first addend because the
  /// clock reached the deadline there (its second addend is still owed).
  struct PairRun {
    u64 done = 0;
    bool reached = false;
  };

  /// Apply up to `n` repetitions of advance(first); advance(second), stopping
  /// right after the advance(first) that brings now() to or past `deadline`.
  /// Every clock and bucket sees exactly the additions, in exactly the order,
  /// of the advance() loop; only the host work differs. advance() keeps now_
  /// in memory and walks open_buckets_ (which the compiler must assume may
  /// alias now_) on every call, so a run of n pairs costs two dependent
  /// store-load-add chains per pair. Here now_ is summed in a register, then
  /// the same sequence is replayed onto each bucket on its own. Buckets are
  /// distinct (Scope asserts it), so each sum is independent of the others
  /// and bit-identical to the interleaved loop.
  PairRun advance_pairs(VirtDuration first, VirtDuration second, u64 n,
                        VirtDuration deadline) noexcept {
    assert(first.count() >= 0.0 && second.count() >= 0.0);
    PairRun run;
    VirtDuration now = now_;
    while (run.done < n) {
      now += first;
      ++run.done;
      if (now >= deadline) {
        run.reached = true;
        break;
      }
      now += second;
    }
    now_ = now;
    const u64 full = run.done - (run.reached ? 1 : 0);
    for (VirtDuration* b : open_buckets_) {
      VirtDuration sum = *b;
      for (u64 i = 0; i < full; ++i) {
        sum += first;
        sum += second;
      }
      if (run.reached) sum += first;
      *b = sum;
    }
    return run;
  }

  /// RAII attribution scope: all time advanced while alive is also added to
  /// `bucket`. Scopes nest; one duration may land in several buckets, but a
  /// bucket is open at most once (a second scope would double-count it).
  class Scope {
   public:
    Scope(VirtualClock& clock, VirtDuration& bucket) : clock_(clock), bucket_(&bucket) {
      assert(std::find(clock_.open_buckets_.begin(), clock_.open_buckets_.end(), bucket_) ==
             clock_.open_buckets_.end());
      clock_.open_buckets_.push_back(bucket_);
    }
    ~Scope() {
      assert(!clock_.open_buckets_.empty() && clock_.open_buckets_.back() == bucket_);
      clock_.open_buckets_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    VirtualClock& clock_;
    VirtDuration* bucket_;
  };

  /// Convenience: measure the virtual time taken by `fn`.
  template <typename Fn>
  VirtDuration measure(Fn&& fn) {
    const VirtDuration start = now_;
    fn();
    return now_ - start;
  }

  void reset() noexcept {
    assert(open_buckets_.empty());
    now_ = VirtDuration{0};
  }

 private:
  VirtDuration now_{0};
  std::vector<VirtDuration*> open_buckets_;
};

}  // namespace ooh

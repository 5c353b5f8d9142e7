// The experiment-wide virtual clock.
//
// Every simulated CPU action (page walk, VM-exit, hypercall, disk write,
// workload compute) charges time here. Attribution scopes let higher layers
// split the same timeline into "Tracked work" vs "Tracker work" vs
// per-phase buckets without a second clock.
#pragma once

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cstddef>
#include <limits>
#include <vector>

#include "base/types.hpp"
#include "base/vtime.hpp"

namespace ooh {

// VirtualClock::advance_pairs() replaces runs of floating-point additions
// with integer steps on the ulp grid, which is exact only for IEEE 754
// binary64 evaluated at its own precision. Precondition (not checkable at
// compile time): the rounding mode is round-to-nearest-even, the default;
// nothing in this program changes it.
static_assert(std::numeric_limits<double>::is_iec559, "VirtualClock needs IEEE 754 doubles");
static_assert(FLT_EVAL_METHOD == 0, "VirtualClock needs double arithmetic at double precision");

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
  /// The clock and every open bucket end bit-identical to that advance()
  /// loop; only the host work differs.
  ///
  /// A run of kClosedFormMinPairs pairs or more is not added pair by pair.
  /// Inside one binade every double is a multiple of the binade's ulp u, so
  /// under round-to-nearest-even `x + a` is `x + round(a/u) * u` for every x
  /// there, unless a/u is an exact tie. Held as its bit pattern (an integer
  /// count of ulps), a value moves by k * (Ra + Rb) over k pairs, and the
  /// deadline stop is one division away. A pair that could leave the binade,
  /// a tie, or an addend with no fixed step is added for real, and the run
  /// continues on the next grid (add_pairs_on_grid in clock.cpp). Shorter
  /// runs, such as per-page (n = 1) and stride-512 (n = 8) runs, keep the
  /// plain loop, which is faster there.
  ///
  /// The clock is run first (it alone decides where the run stops), then the
  /// same count of pairs is replayed onto each open bucket from its own
  /// value. Buckets are distinct (Scope asserts it), so each sum is
  /// independent of the others.
  PairRun advance_pairs(VirtDuration first, VirtDuration second, u64 n,
                        VirtDuration deadline) noexcept {
    assert(first.count() >= 0.0 && second.count() >= 0.0);
    double now = now_.count();
    const PairRun run = add_pairs(now, first.count(), second.count(), n, deadline.count());
    now_ = VirtDuration{now};
    const u64 full = run.done - (run.reached ? 1 : 0);
    for (VirtDuration* b : open_buckets_) {
      double sum = b->count();
      add_pairs(sum, first.count(), second.count(), full, kNoDeadline);
      if (run.reached) sum += first.count();
      *b = VirtDuration{sum};
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
  /// Runs shorter than this many pairs take the plain addition loop: below
  /// it the closed form's fixed cost (operand decomposition, a division and
  /// an out-of-line call) outweighs the 2n additions it saves. Chosen from
  /// the gbench rows BM_ClockAdvancePairs (n = 8 is faster as a loop, n = 64
  /// as a closed form), BM_TouchRangePerPage (n = 1) and
  /// BM_TouchRangeSubPageStride (n = 8).
  static constexpr u64 kClosedFormMinPairs = 16;
  static constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  /// Apply up to `n` pairs `x += a; x += b` to `x`, stopping right after the
  /// `x += a` that brings it to or past `deadline`.
  PairRun add_pairs(double& x, double a, double b, u64 n, double deadline) noexcept {
    if (n >= kClosedFormMinPairs) return add_pairs_on_grid(x, a, b, n, deadline);
    PairRun run;
    double v = x;
    while (run.done < n) {
      v += a;
      ++run.done;
      if (v >= deadline) {
        run.reached = true;
        break;
      }
      v += b;
    }
    x = v;
    return run;
  }

  /// add_pairs() in a few integer operations per binade instead of 2n
  /// additions, bit-identical to the loop (clock.cpp explains why).
  PairRun add_pairs_on_grid(double& x, double a, double b, u64 n, double deadline) noexcept;

  /// The last grid_steps() pair add_pairs_on_grid computed: the addends'
  /// bit patterns and the binade's biased exponent (0, which no binade has,
  /// marks it empty), and the steps of each addend there. Successive
  /// segments of one access run repeat the same key.
  struct GridMemo {
    u64 a_bits = 0;
    u64 b_bits = 0;
    u64 exp = 0;
    u64 ra = 0;
    u64 rb = 0;
  };

  VirtDuration now_{0};
  std::vector<VirtDuration*> open_buckets_;
  GridMemo memo_;
};

}  // namespace ooh

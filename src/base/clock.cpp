#include "base/clock.hpp"

#include <algorithm>
#include <bit>

namespace ooh {
namespace {

constexpr u64 kMantissaBits = 52;
constexpr u64 kMantissaMask = (u64{1} << kMantissaBits) - 1;
constexpr u64 kMaxExp = 0x7ff;  ///< biased exponent of inf and NaN.
/// grid_steps() result for an addend with no fixed step in the binade.
constexpr u64 kNoStep = ~u64{0};

/// The number of ulps that `x + a` moves every `x` of the binade with biased
/// exponent `exp`, or kNoStep when that is not a constant: `a` is negative
/// or not finite, or a/u falls exactly halfway between two integers (a tie,
/// rounded to even by the parity of `x`). u is the binade's ulp,
/// 2^(exp - 1075); a = ma * 2^(ea - 1075), so a/u is `ma` shifted right by
/// exp - ea and its rounding reads off the shifted-out bits.
u64 grid_steps(double a, u64 exp) noexcept {
  const u64 bits = std::bit_cast<u64>(a);
  u64 ea = bits >> kMantissaBits;  // the sign bit puts a negative `a` above any exp
  u64 ma = bits & kMantissaMask;
  if (ea == 0) {
    ea = 1;  // zero or subnormal: same scale as the lowest normal binade
  } else {
    ma |= u64{1} << kMantissaBits;
  }
  if (ea > exp) return kNoStep;  // also catches inf and NaN
  const u64 shift = exp - ea;
  if (shift == 0) return ma;
  if (shift > kMantissaBits + 1) return 0;  // a < u/2: no step
  const u64 half = u64{1} << (shift - 1);
  const u64 rem = ma & ((half << 1) - 1);
  if (rem == half) return kNoStep;
  return (ma >> shift) + (rem > half ? 1 : 0);
}

}  // namespace

// Why a closed form is exact. Inside one binade [2^e, 2^(e+1)) every double
// is a multiple of u = 2^(e-52), so under round-to-nearest the exact sum
// x + a (>= x, a >= 0) rounds to the multiple of u nearest to it,
// x + round(a/u) * u, as long as it stays below 2^(e+1). That step is the
// same for every x in the binade unless a/u is an exact tie. For a
// non-negative double in one binade the bit pattern is an integer count of
// ulps, so the run is held as that integer: k full pairs add k * (Ra + Rb),
// and the deadline stop is the first pair j with
// X + (j-1) * (Ra + Rb) + Ra >= bits(deadline) (bit order is value order
// for non-negative doubles; a deadline <= 0 stops the first pair, a NaN one
// none). Zero and subnormal values share the grid of the lowest normal
// binade and join it.
//
// Fallbacks: a run stays on one grid only while the next pair cannot leave
// the binade. A pair that could cross into the next binade, a tie, or an
// operand with no fixed step takes one ordinary pair of additions, and the
// run continues from where that pair left it.
VirtualClock::PairRun VirtualClock::add_pairs_on_grid(double& x, double a, double b, u64 n,
                                                      double deadline) noexcept {
  PairRun run;
  const u64 stop = deadline > 0.0 ? std::bit_cast<u64>(deadline)
                                  : (deadline <= 0.0 ? 0 : ~u64{0});
  const u64 a_bits = std::bit_cast<u64>(a);
  const u64 b_bits = std::bit_cast<u64>(b);
  u64 v = std::bit_cast<u64>(x);
  while (run.done < n) {
    const u64 exp = std::max<u64>(v >> kMantissaBits, 1);
    if (memo_.exp != exp || memo_.a_bits != a_bits || memo_.b_bits != b_bits) {
      memo_ = {a_bits, b_bits, exp, grid_steps(a, exp), grid_steps(b, exp)};
    }
    const u64 ra = memo_.ra;
    const u64 rb = memo_.rb;
    if (exp < kMaxExp && ra != kNoStep && rb != kNoStep) {
      const u64 step = ra + rb;
      const u64 left = n - run.done;
      const u64 room = ((exp + 1) << kMantissaBits) - 1 - v;  // ulps left in the binade
      // The whole run when it stays in the binade; divide only when it would
      // leave it (or left * step would overflow).
      u64 span = 0;
      const u64 fit = !__builtin_mul_overflow(left, step, &span) && span <= room
                          ? left
                          : room / step;
      if (fit > 0) {
        // Pair j (1-based) reaches the deadline iff v + (j-1)*step + ra >= stop.
        const u64 first_hit = v + ra;
        if (first_hit + (fit - 1) * step >= stop) {
          const u64 j = first_hit >= stop ? 1 : 1 + (stop - first_hit + step - 1) / step;
          v = first_hit + (j - 1) * step;
          run.done += j;
          run.reached = true;
          break;
        }
        v += fit * step;
        run.done += fit;
        continue;
      }
    }
    double s = std::bit_cast<double>(v) + a;
    ++run.done;
    if (s >= deadline) {
      run.reached = true;
      v = std::bit_cast<u64>(s);
      break;
    }
    s += b;
    v = std::bit_cast<u64>(s);
  }
  x = std::bit_cast<double>(v);
  return run;
}

}  // namespace ooh

// Unit tests for the base layer: interpolation, clock attribution, ring
// buffer, counters, cost model calibration, stats, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "base/arena.hpp"
#include "base/clock.hpp"
#include "base/cost_model.hpp"
#include "base/counters.hpp"
#include "base/interp.hpp"
#include "base/page_bitmap.hpp"
#include "base/ring_buffer.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/types.hpp"

namespace ooh {
namespace {

// ---- types -------------------------------------------------------------------

TEST(Types, PageArithmetic) {
  EXPECT_EQ(page_floor(0x1234), 0x1000u);
  EXPECT_EQ(page_ceil(0x1001), 0x2000u);
  EXPECT_EQ(page_ceil(0x1000), 0x1000u);
  EXPECT_EQ(page_index(0x3456), 3u);
  EXPECT_EQ(page_offset(0x3456), 0x456u);
  EXPECT_EQ(pages_for_bytes(1), 1u);
  EXPECT_EQ(pages_for_bytes(kPageSize), 1u);
  EXPECT_EQ(pages_for_bytes(kPageSize + 1), 2u);
  EXPECT_TRUE(is_page_aligned(0x2000));
  EXPECT_FALSE(is_page_aligned(0x2008));
}

// ---- interp ------------------------------------------------------------------

TEST(LogLogInterp, HitsCalibrationPointsExactly) {
  LogLogInterp f({{1.0, 10.0}, {10.0, 100.0}, {100.0, 400.0}});
  EXPECT_NEAR(f.at(1.0), 10.0, 1e-9);
  EXPECT_NEAR(f.at(10.0), 100.0, 1e-9);
  EXPECT_NEAR(f.at(100.0), 400.0, 1e-9);
}

TEST(LogLogInterp, InterpolatesGeometrically) {
  LogLogInterp f({{1.0, 1.0}, {100.0, 100.0}});
  // Linear in log-log space: f(10) = 10.
  EXPECT_NEAR(f.at(10.0), 10.0, 1e-9);
}

TEST(LogLogInterp, ExtrapolatesEndSlopes) {
  LogLogInterp f({{1.0, 1.0}, {10.0, 10.0}});
  EXPECT_NEAR(f.at(100.0), 100.0, 1e-6);  // slope 1 continues
  EXPECT_NEAR(f.at(0.1), 0.1, 1e-6);
}

TEST(LogLogInterp, MonotonicInputsStayMonotonic) {
  LogLogInterp f({{1.0, 2.0}, {8.0, 5.0}, {64.0, 40.0}, {512.0, 100.0}});
  double prev = 0.0;
  for (double x = 0.5; x < 1000.0; x *= 1.3) {
    const double y = f.at(x);
    EXPECT_GT(y, prev);
    prev = y;
  }
}

TEST(LogLogInterp, RejectsBadInputs) {
  EXPECT_THROW(LogLogInterp{std::vector<LogLogInterp::Point>{}}, std::invalid_argument);
  EXPECT_THROW(LogLogInterp({{1.0, 1.0}, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(LogLogInterp({{2.0, 1.0}, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(LogLogInterp({{0.0, 1.0}}), std::invalid_argument);
  LogLogInterp f({{1.0, 1.0}, {2.0, 2.0}});
  EXPECT_THROW((void)f.at(0.0), std::invalid_argument);
}

TEST(LogLogInterp, SinglePointIsConstant) {
  LogLogInterp f({{5.0, 42.0}});
  EXPECT_EQ(f.at(1.0), 42.0);
  EXPECT_EQ(f.at(1000.0), 42.0);
}

// ---- clock --------------------------------------------------------------------

TEST(VirtualClock, AdvancesAndMeasures) {
  VirtualClock c;
  EXPECT_EQ(c.now().count(), 0.0);
  c.advance(usecs(5));
  EXPECT_DOUBLE_EQ(c.now().count(), 5.0);
  const VirtDuration d = c.measure([&] { c.advance(msecs(1)); });
  EXPECT_DOUBLE_EQ(to_ms(d), 1.0);
}

TEST(VirtualClock, ScopesAttributeToBucketsAndNest) {
  VirtualClock c;
  VirtDuration outer{0}, inner{0};
  {
    VirtualClock::Scope so(c, outer);
    c.advance(usecs(10));
    {
      VirtualClock::Scope si(c, inner);
      c.advance(usecs(7));
    }
    c.advance(usecs(3));
  }
  c.advance(usecs(100));  // outside all scopes
  EXPECT_DOUBLE_EQ(outer.count(), 20.0);
  EXPECT_DOUBLE_EQ(inner.count(), 7.0);
  EXPECT_DOUBLE_EQ(c.now().count(), 120.0);
}

// advance_pairs must leave the clock and every open bucket exactly where the
// advance() loop it replaces would, and stop on the same pair -- including
// when a sum lands exactly on the deadline (dyadic costs make that exact).
TEST(VirtualClock, AdvancePairsMatchesAdvanceLoop) {
  struct Case {
    VirtDuration first, second;
    u64 n;
    VirtDuration deadline;  ///< relative to the clock at the start of the run
    u64 done;
    bool reached;
  };
  const VirtDuration inf{std::numeric_limits<double>::infinity()};
  const Case cases[] = {
      {usecs(0.25), usecs(0.75), 10, usecs(2.25), 3, true},  // exactly on it
      {usecs(0.25), usecs(0.75), 3, usecs(2.5), 3, false},
      {nsecs(1.0), nsecs(100.0), 1000, usecs(37.3), 371, true},
      {nsecs(1.0), nsecs(100.0), 1000, inf, 1000, false},
      {nsecs(1.0), nsecs(100.0), 5, usecs(0), 1, true},
  };
  for (const Case& c : cases) {
    VirtualClock batched, loop;
    VirtDuration b_outer{0}, b_inner{0}, l_outer{0}, l_inner{0};
    const VirtualClock::Scope bo(batched, b_outer), lo(loop, l_outer);
    batched.advance(usecs(0.5));
    loop.advance(usecs(0.5));
    const VirtualClock::Scope bi(batched, b_inner), li(loop, l_inner);
    const VirtDuration deadline = c.deadline + loop.now();

    const VirtualClock::PairRun got = batched.advance_pairs(c.first, c.second, c.n, deadline);
    VirtualClock::PairRun want;
    while (want.done < c.n) {
      loop.advance(c.first);
      ++want.done;
      if (loop.now() >= deadline) {
        want.reached = true;
        break;
      }
      loop.advance(c.second);
    }
    EXPECT_EQ(want.done, c.done);
    EXPECT_EQ(want.reached, c.reached);
    EXPECT_EQ(got.done, want.done);
    EXPECT_EQ(got.reached, want.reached);
    EXPECT_EQ(batched.now().count(), loop.now().count());
    EXPECT_EQ(b_outer.count(), l_outer.count());
    EXPECT_EQ(b_inner.count(), l_inner.count());
  }
}

// advance_pairs steps long runs on the ulp grid of each binade instead of
// adding (see VirtualClock::add_pairs). Differential check against the plain
// advance() loop, compared by bit pattern, over seeded random runs that hit
// every fallback: zero and subnormal starts, starts just below a power of
// two, long runs crossing binades, addends that tie on the start's grid,
// deadlines at or before now, exactly on a reached value, and +inf, with up
// to three open buckets of unrelated magnitudes.
TEST(VirtualClock, AdvancePairsBitExactOnUlpGrid) {
  constexpr u64 kClosedFormRun = 16;  ///< VirtualClock's shortest closed-form run.
  Rng rng(0x0015'6e1d);
  const double inf = std::numeric_limits<double>::infinity();
  const auto bits = [](double v) { return std::bit_cast<u64>(v); };
  // One grid step (ulp) of the binade holding `v` (> 0).
  const auto ulp = [](double v) {
    int e = 0;
    (void)std::frexp(v, &e);
    return std::ldexp(1.0, std::max(e - 53, -1074));
  };
  const auto magnitude = [&](int lo, int hi) {
    return std::ldexp(rng.uniform(1.0, 2.0), lo + static_cast<int>(rng.below(hi - lo + 1)));
  };
  const auto start_value = [&]() -> double {
    switch (rng.below(6)) {
      case 0: return 0.0;
      case 1: return std::bit_cast<double>(1 + rng.below(u64{1} << 52));  // subnormal
      case 2: {  // a few ulps below a power of two
        const double p = std::ldexp(1.0, -20 + static_cast<int>(rng.below(51)));
        return p - static_cast<double>(1 + rng.below(4096)) * ulp(p / 2);
      }
      case 3: return rng.uniform(1e6, 1e7);  // realistic clock, in us
      case 4: return magnitude(-30, 30);
      default: return static_cast<double>(rng.below(1 << 20)) / 64;  // dyadic
    }
  };
  const auto addend = [&](double x) -> double {
    switch (rng.below(7)) {
      case 0: return 0.0;
      case 1: return rng.below(2) == 0 ? nsecs(1.0).count() : nsecs(100.0).count();
      case 2: return magnitude(-40, 5);
      case 3: return static_cast<double>(rng.below(256)) / 64;  // dyadic
      case 4: return std::bit_cast<double>(rng.below(u64{1} << 52));  // subnormal
      case 5: return x > 0.0 ? ulp(x) * (rng.below(2) == 0 ? 1.5 : 0.5) : 0.5;  // tie
      default: return x > 0.0 ? ulp(x) * static_cast<double>(1 + rng.below(1 << 16)) : 1.0;
    }
  };

  constexpr int kCases = 100'000;
  int reached_cases = 0, exact_deadlines = 0;
  for (int c = 0; c < kCases; ++c) {
    const double start = start_value();
    const VirtDuration first{addend(start)}, second{addend(start)};
    // Log-uniform lengths straddle the short-run cutoff; some are long
    // enough to cross several binades.
    const u64 n = rng.below(8) == 0 ? 0 : (u64{1} << rng.below(12)) + rng.below(64);
    const u64 buckets = rng.below(4);
    double bucket_start[3];
    for (double& b : bucket_start) b = start_value();

    // The reference loop, recording where each +first lands.
    VirtualClock loop;
    loop.advance(VirtDuration{start});
    // Arrays destroy back to front, closing the scopes innermost first.
    VirtDuration l_bucket[3];
    std::optional<VirtualClock::Scope> l_scopes[3];
    for (u64 i = 0; i < buckets; ++i) {
      l_bucket[i] = VirtDuration{bucket_start[i]};
      l_scopes[i].emplace(loop, l_bucket[i]);
    }
    double deadline = inf;
    switch (rng.below(5)) {
      case 0: break;
      case 1: deadline = start - static_cast<double>(rng.below(2)) * start / 4; break;
      case 2: deadline = rng.below(2) == 0 ? 0.0 : -0.0; break;
      default: {  // exactly on a value the run reaches, or between two of them
        VirtualClock probe;
        probe.advance(VirtDuration{start});
        const u64 k = n == 0 ? 0 : rng.below(n);
        for (u64 i = 0; i < k; ++i) probe.advance(first), probe.advance(second);
        probe.advance(first);
        deadline = probe.now().count();
        if (rng.below(3) == 0) deadline = std::nextafter(deadline, inf);
      }
    }
    VirtualClock::PairRun want;
    while (want.done < n) {
      loop.advance(first);
      ++want.done;
      if (loop.now().count() >= deadline) {
        want.reached = true;
        break;
      }
      loop.advance(second);
    }

    VirtualClock batched;
    batched.advance(VirtDuration{start});
    VirtDuration b_bucket[3];
    std::optional<VirtualClock::Scope> b_scopes[3];
    for (u64 i = 0; i < buckets; ++i) {
      b_bucket[i] = VirtDuration{bucket_start[i]};
      b_scopes[i].emplace(batched, b_bucket[i]);
    }
    const VirtualClock::PairRun got =
        batched.advance_pairs(first, second, n, VirtDuration{deadline});

    SCOPED_TRACE(::testing::Message()
                 << "case " << c << std::hexfloat << ": start " << start << " first "
                 << first.count() << " second " << second.count() << " n " << n
                 << " deadline " << deadline << " buckets " << buckets);
    ASSERT_EQ(got.done, want.done);
    ASSERT_EQ(got.reached, want.reached);
    ASSERT_EQ(bits(batched.now().count()), bits(loop.now().count()));
    for (u64 i = 0; i < buckets; ++i) {
      ASSERT_EQ(bits(b_bucket[i].count()), bits(l_bucket[i].count())) << "bucket " << i;
    }
    reached_cases += want.reached ? 1 : 0;
    exact_deadlines += want.reached && loop.now().count() == deadline ? 1 : 0;
  }
  // The generator really exercised deadline stops, including exact hits.
  EXPECT_GT(reached_cases, kCases / 4);
  EXPECT_GT(exact_deadlines, kCases / 10);

  // One clock over many runs: the grid steps it memoises carry from run to
  // run, so alternate two addend pairs, with an open bucket of another
  // magnitude, from starts just below a power of two so that runs cross
  // binades. Every run must still land where the loop does.
  int crossings = 0;
  for (int round = 0; round < 300; ++round) {
    const double p = std::ldexp(1.0, -10 + static_cast<int>(rng.below(40)));
    const double start = p - static_cast<double>(1 + rng.below(1 << 20)) * ulp(p / 2);
    const VirtDuration pairs[2][2] = {{VirtDuration{addend(start)}, VirtDuration{addend(start)}},
                                      {VirtDuration{addend(start)}, VirtDuration{addend(start)}}};
    VirtualClock loop, batched;
    loop.advance(VirtDuration{start});
    batched.advance(VirtDuration{start});
    const double bucket_start = start_value();
    VirtDuration l_bucket{bucket_start}, b_bucket{bucket_start};
    const VirtualClock::Scope ls(loop, l_bucket), bs(batched, b_bucket);
    for (int r = 0; r < 40; ++r) {
      const VirtDuration first = pairs[r % 2][0], second = pairs[r % 2][1];
      const u64 n = kClosedFormRun + rng.below(512);
      const u64 exp_before = bits(loop.now().count()) >> 52;
      for (u64 i = 0; i < n; ++i) loop.advance(first), loop.advance(second);
      const VirtualClock::PairRun got = batched.advance_pairs(first, second, n, VirtDuration{inf});
      SCOPED_TRACE(::testing::Message() << "round " << round << " run " << r << std::hexfloat
                                        << ": start " << start << " first " << first.count()
                                        << " second " << second.count() << " n " << n);
      ASSERT_EQ(got.done, n);
      ASSERT_EQ(bits(batched.now().count()), bits(loop.now().count()));
      ASSERT_EQ(bits(b_bucket.count()), bits(l_bucket.count()));
      crossings += (bits(loop.now().count()) >> 52) != exp_before ? 1 : 0;
    }
  }
  EXPECT_GT(crossings, 300);
}

// ---- ring buffer ---------------------------------------------------------------

TEST(RingBuffer, FifoOrder) {
  RingBuffer rb(4);
  for (u64 v : {1, 2, 3}) EXPECT_TRUE(rb.push(v));
  u64 out = 0;
  EXPECT_TRUE(rb.pop(out));
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(rb.pop(out));
  EXPECT_EQ(out, 2u);
  rb.push(4);
  rb.push(5);
  EXPECT_EQ(rb.drain(), (std::vector<u64>{3, 4, 5}));
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, OverflowDropsAndCounts) {
  RingBuffer rb(2);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_FALSE(rb.push(3));
  EXPECT_FALSE(rb.push(4));
  EXPECT_EQ(rb.dropped(), 2u);
  EXPECT_EQ(rb.drain(), (std::vector<u64>{1, 2}));
  rb.reset_dropped();
  EXPECT_EQ(rb.dropped(), 0u);
}

// The ring wraps by compare, not by modulo: drive it against a std::deque
// model at capacities where the wrap lands on every slot (1, 3, and 513,
// one past a power of two), with bursts that fill it (drops counted) and
// drains that start anywhere, so some span the wrap point.
TEST(RingBuffer, WrapsAroundManyTimes) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}, std::size_t{513}}) {
    SCOPED_TRACE(capacity);
    RingBuffer rb(capacity);
    std::deque<u64> model;
    u64 dropped = 0;
    u64 next = 0;
    u64 popped = 0;  // the ring's head slot is popped % capacity
    u64 wrapped_drains = 0;
    Rng rng(0x5eed + capacity);
    for (int step = 0; step < 20000; ++step) {
      const u64 op = rng.below(100);
      if (op < 55) {
        // A burst of pushes, up to twice the capacity: may overflow.
        for (u64 n = 1 + rng.below(2 * capacity); n > 0; --n) {
          const bool pushed = rb.push(next);
          ASSERT_EQ(pushed, model.size() < capacity);
          if (pushed) {
            model.push_back(next);
          } else {
            ++dropped;
          }
          ++next;
        }
      } else if (op < 97) {
        for (u64 n = 1 + rng.below(capacity + 1); n > 0; --n) {
          u64 out = ~u64{0};
          ASSERT_EQ(rb.pop(out), !model.empty());
          if (model.empty()) break;
          ASSERT_EQ(out, model.front());
          model.pop_front();
          ++popped;
        }
      } else {
        // Oldest-first drain; count the drains whose entries run past the
        // last slot and continue at slot 0.
        if (popped % capacity + model.size() > capacity) ++wrapped_drains;
        const std::vector<u64> drained = rb.drain();
        ASSERT_EQ(drained, std::vector<u64>(model.begin(), model.end()));
        popped = 0;  // the emptied ring restarts at slot 0
        model.clear();
      }
      ASSERT_EQ(rb.size(), model.size());
      ASSERT_EQ(rb.full(), model.size() == capacity);
      ASSERT_EQ(rb.empty(), model.empty());
      ASSERT_EQ(rb.dropped(), dropped);
    }
    EXPECT_GT(dropped, 0u) << "the ring must have overflowed";
    EXPECT_GT(next, 10 * capacity) << "the cursors must have wrapped many times";
    if (capacity > 1) {
      EXPECT_GT(wrapped_drains, 0u) << "no drain spanned the wrap point";
    }
  }
}

// move_to must leave both rings as a pop()/push() loop would: the same
// contents in the same order and the same drop count on the destination,
// and an empty source. Random fills and partial pops put both cursors
// anywhere, so the copies split at either ring's wrap point, and bursts
// overflow the destination.
TEST(RingBuffer, MoveToMatchesPopPushLoop) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    SCOPED_TRACE(capacity);
    RingBuffer src(capacity), dst(capacity + capacity / 2 + 1);
    RingBuffer ref_src(src.capacity()), ref_dst(dst.capacity());
    Rng rng(0x30e + capacity);
    u64 next = 0;
    u64 moves_with_drops = 0;
    for (int step = 0; step < 20000; ++step) {
      const u64 op = rng.below(100);
      if (op < 40) {
        for (u64 n = rng.below(capacity + 2); n > 0; --n, ++next) {
          src.push(next);
          ref_src.push(next);
        }
      } else if (op < 60) {
        for (u64 n = rng.below(dst.capacity() + 1); n > 0; --n, ++next) {
          dst.push(next);
          ref_dst.push(next);
        }
      } else if (op < 80) {
        for (u64 n = rng.below(dst.capacity() + 1); n > 0; --n) {
          u64 a = 0, b = 0;
          ASSERT_EQ(dst.pop(a), ref_dst.pop(b));
          ASSERT_EQ(a, b);
        }
      } else if (op < 99) {
        const u64 drops_before = ref_dst.dropped();
        const std::size_t want = ref_src.size();
        u64 v = 0;
        while (ref_src.pop(v)) ref_dst.push(v);
        ASSERT_EQ(src.move_to(dst), want);
        ASSERT_TRUE(src.empty());
        moves_with_drops += ref_dst.dropped() != drops_before ? 1 : 0;
      } else {
        ASSERT_EQ(dst.drain(), ref_dst.drain());
      }
      ASSERT_EQ(src.size(), ref_src.size());
      ASSERT_EQ(dst.size(), ref_dst.size());
      ASSERT_EQ(dst.dropped(), ref_dst.dropped());
    }
    ASSERT_EQ(dst.drain(), ref_dst.drain());
    EXPECT_GT(moves_with_drops, 0u) << "no move overflowed the destination";
  }
}

// ---- page bitmap ---------------------------------------------------------------

// sort_unique_pages equals std::sort + std::unique on dense spans (the word
// path), sparse spans and unaligned entries (the sort path), duplicates, and
// the empty and one-page inputs, with one word buffer reused throughout.
TEST(PageBitmap, SortUniquePagesMatchesSortUnique) {
  Rng rng(0x50e7);
  std::vector<u64> words;
  const auto check = [&](std::vector<u64> pages) {
    std::vector<u64> want = pages;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    sort_unique_pages(pages, words);
    ASSERT_EQ(pages, want);
  };
  check({});
  check({7 * kPageSize});
  check({5 * kPageSize, 5 * kPageSize, 5 * kPageSize});
  check({0, 63 * kPageSize, 64 * kPageSize, 127 * kPageSize, 128 * kPageSize, 0});
  check({kPageSize + 8, kPageSize, 3});           // unaligned entries sort
  check({kGiB, 0, 5 * kGiB - kPageSize, 4 * kGiB});  // sparse: sort
  for (int round = 0; round < 500; ++round) {
    const u64 n = 1 + rng.below(3000);
    const u64 span = 1 + rng.below(rng.below(2) == 0 ? 2 * n : 400 * n);  // dense or sparse
    const u64 base = rng.below(1 << 20) * kPageSize;
    std::vector<u64> pages(n);
    for (u64& p : pages) p = base + rng.below(span) * kPageSize;
    check(pages);
  }
}


TEST(PageBitmap, TestAndSetWithinRangeThrowsBeyond) {
  PageBitmap bits(8 * kPageSize + 100);  // a partial last page
  EXPECT_TRUE(bits.none());
  EXPECT_TRUE(bits.test_and_set(kPageSize));
  EXPECT_FALSE(bits.test_and_set(kPageSize + 8)) << "same page";
  EXPECT_TRUE(bits.test_and_set(8 * kPageSize + 99));
  EXPECT_THROW(bits.test_and_set(8 * kPageSize + 100), std::out_of_range);
  EXPECT_FALSE(bits.none());
  const std::vector<u64> set = {kPageSize, 8 * kPageSize};
  bits.reset(set);
  EXPECT_TRUE(bits.none());
  EXPECT_TRUE(bits.test_and_set(0)) << "page 0 was never set";
}

// Differential check of PageBitmap::Unique against a std::set reference over
// seeded random rounds on ONE reused bitmap: a clear that misses a bit shows
// up as a page dropped from a later round. Some rounds start from a non-empty
// output (the migration carry-merge shape) and some meet an out-of-range
// address, whose cleanup must leave the bitmap empty too.
TEST(PageBitmap, UniqueMatchesSetReferenceAcrossReusedRounds) {
  const u64 pages = 3000;  // 47 words, the last one partial
  PageBitmap bits(pages * kPageSize);
  Rng rng(0xb17);
  for (int round = 0; round < 300; ++round) {
    std::set<u64> ref;
    std::vector<u64> expected;
    const auto pick = [&] {
      // Half the picks land in a 64-page hot range, forcing duplicates.
      const u64 page = rng.below(2) == 0 ? rng.below(64) : rng.below(pages);
      return page * kPageSize + rng.below(kPageSize);
    };
    std::vector<u64> out;
    for (u64 i = rng.below(3) == 0 ? rng.below(40) : 0; i > 0; --i) {
      const u64 addr = pick();
      if (ref.insert(page_index(addr)).second) out.push_back(addr);
    }
    // A base entry beyond the range makes the constructor throw after
    // marking the entries before it.
    const bool bad_base = !out.empty() && rng.below(4) == 0;
    if (bad_base) out.push_back(pages * kPageSize);
    expected = out;
    const bool overflow = !bad_base && rng.below(8) == 0;
    try {
      PageBitmap::Unique unique(bits, out);
      for (u64 i = rng.below(500); i > 0; --i) {
        const u64 addr = pick();
        const bool fresh = ref.insert(page_index(addr)).second;
        if (fresh) expected.push_back(addr);
        EXPECT_EQ(unique.add(addr), fresh);
      }
      if (overflow) unique.add(pages * kPageSize + rng.below(kPageSize));
    } catch (const std::out_of_range&) {
      EXPECT_TRUE(overflow || bad_base);
    }
    ASSERT_EQ(out, expected) << "round " << round;
    ASSERT_TRUE(bits.none()) << "round " << round << " left bits behind";
  }
}

// ---- arena ----------------------------------------------------------------------

/// Shaped like a radix interior node: 512 pointer-sized slots.
struct ArenaNode {
  std::array<u64, 512> slots;
};

TEST(Arena, NodesReadZeroAfterReset) {
  base::Arena arena;
  std::vector<ArenaNode*> first;
  for (int i = 0; i < 40; ++i) {
    ArenaNode* n = arena.create<ArenaNode>();
    n->slots.fill(~u64{0});
    first.push_back(n);
  }
  arena.reset();
  for (int i = 0; i < 40; ++i) {
    const ArenaNode* n = arena.create<ArenaNode>();
    EXPECT_EQ(n, first[static_cast<std::size_t>(i)]) << "node " << i;
    EXPECT_TRUE(std::ranges::all_of(n->slots, [](u64 v) { return v == 0; }))
        << "recycled node " << i << " kept stale bytes";
  }
}

TEST(Arena, NoNodeSpansTwoBlocks) {
  // 3000 bytes does not divide the block size, so some node must move to the
  // next block instead of straddling the boundary.
  struct Odd {
    std::array<u8, 3000> bytes;
  };
  constexpr std::size_t kBlock = base::Arena::kBlockBytes;
  base::Arena arena;
  const std::byte* block_base = nullptr;
  std::size_t block = ~std::size_t{0};
  std::size_t blocks = 0;
  for (int i = 0; i < 100; ++i) {
    const auto* n = reinterpret_cast<const std::byte*>(arena.create<Odd>());
    const std::size_t used = arena.used_bytes();
    if ((used - 1) / kBlock != block) {
      block = (used - 1) / kBlock;
      block_base = n;
      ++blocks;
      EXPECT_EQ(used - sizeof(Odd), block * kBlock) << "node " << i << " must open its block";
    }
    EXPECT_GE(n, block_base);
    EXPECT_LE(n + sizeof(Odd), block_base + kBlock) << "node " << i << " spans two blocks";
  }
  EXPECT_GT(blocks, 1u);
  EXPECT_EQ(arena.reserved_bytes(), blocks * kBlock);
}

TEST(Arena, ResetReusesBlocksWithoutAllocating) {
  base::Arena arena;
  std::vector<ArenaNode*> first;
  for (int i = 0; i < 48; ++i) first.push_back(arena.create<ArenaNode>());
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_EQ(reserved, 3 * base::Arena::kBlockBytes);
  for (int round = 0; round < 3; ++round) {
    arena.reset();
    EXPECT_EQ(arena.used_bytes(), 0u);
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(arena.create<ArenaNode>(), first[i]) << "round " << round << " node " << i;
    }
    EXPECT_EQ(arena.reserved_bytes(), reserved) << "reset must not grow the arena";
  }
}

// ---- counters ------------------------------------------------------------------

TEST(EventCounters, AddGetDiff) {
  EventCounters c;
  c.add(Event::kVmExit);
  c.add(Event::kVmExit, 4);
  c.add(Event::kTlbMiss, 2);
  EXPECT_EQ(c.get(Event::kVmExit), 5u);
  const EventCounters snap = c;
  c.add(Event::kVmExit, 10);
  EXPECT_EQ(c.diff(snap).get(Event::kVmExit), 10u);
  EXPECT_EQ(c.diff(snap).get(Event::kTlbMiss), 0u);
}

TEST(EventCounters, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const std::string_view n = event_name(static_cast<Event>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_TRUE(seen.insert(n).second) << "duplicate event name " << n;
  }
}

// ---- cost model ----------------------------------------------------------------

TEST(CostModel, PaperCalibrationMatchesTableVb) {
  const CostModel m = CostModel::paper_calibrated();
  // Totals at the calibration points, in ms (Table V(b)).
  EXPECT_NEAR(m.clear_refs_us(kGiB) / 1e3, 2.234, 1e-6);
  EXPECT_NEAR(m.pagemap_scan_us(kGiB) / 1e3, 594.187, 1e-3);
  EXPECT_NEAR(m.m6_pfh_user.at(static_cast<double>(kGiB)) / 1e3, 3483.0, 1e-2);
  EXPECT_NEAR(m.m17_reverse_map.at(static_cast<double>(kGiB)) / 1e3, 15738.0, 1e-1);
  EXPECT_NEAR(m.spml_disable_logging_us(kGiB) / 1e3, 0.208, 1e-6);
  EXPECT_NEAR(m.clear_refs_us(kMiB) / 1e3, 0.032, 1e-7);
}

TEST(CostModel, PerPageCostsScaleWithPageCount) {
  const CostModel m = CostModel::paper_calibrated();
  const u64 pages_1g = pages_for_bytes(kGiB);
  EXPECT_NEAR(m.pfh_kernel_per_fault_us(kGiB) * static_cast<double>(pages_1g) / 1e3,
              33.58, 1e-2);
  EXPECT_NEAR(m.reverse_map_per_page_us(kGiB) * static_cast<double>(pages_1g) / 1e3,
              15738.0, 1.0);
}

TEST(CostModel, ReverseMappingIsTheDominantSizeDependentCost) {
  // Fig. 3's premise: reverse mapping dwarfs the PT walk and the RB copy.
  const CostModel m = CostModel::paper_calibrated();
  for (u64 mem : {10 * kMiB, 100 * kMiB, kGiB}) {
    const double rev = m.m17_reverse_map.at(static_cast<double>(mem));
    EXPECT_GT(rev, m.pagemap_scan_us(mem));
    EXPECT_GT(rev, m.m18_rb_copy.at(static_cast<double>(mem)) * 100);
  }
}

TEST(CostModel, UnitModelHasFlatCosts) {
  const CostModel m = CostModel::unit();
  EXPECT_DOUBLE_EQ(m.ctx_switch_us, 1.0);
  EXPECT_DOUBLE_EQ(m.clear_refs_us(kMiB), m.clear_refs_us(kGiB));
  EXPECT_DOUBLE_EQ(m.pagemap_scan_us(kMiB), 1.0);
}

// ---- stats ---------------------------------------------------------------------

TEST(Stats, SummaryAndOverheadHelpers) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);

  EXPECT_DOUBLE_EQ(overhead_pct(15.0, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
  EXPECT_THROW((void)overhead_pct(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)speedup(1.0, 0.0), std::invalid_argument);
}

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// ---- rng -----------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = r.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

// ---- table ---------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row("beta", {2.345}, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.35"), std::string::npos);
  // Every rendered line has the same width.
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(VtimeFormat, PicksUnits) {
  EXPECT_EQ(format_duration(nsecs(500)), "500.0 ns");
  EXPECT_EQ(format_duration(usecs(12.3)), "12.30 us");
  EXPECT_EQ(format_duration(msecs(3.5)), "3.50 ms");
  EXPECT_EQ(format_duration(secs(2.25)), "2.250 s");
}

}  // namespace
}  // namespace ooh

// Tests for the trace utilities: statistics and clocks.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "trace/stats.hpp"
#include "trace/stopwatch.hpp"
#include "trace/virtual_clock.hpp"

namespace kcoup::trace {
namespace {

TEST(RunningStatsTest, EmptyStats) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  const std::vector<double> xs{1.5, -2.0, 7.25, 0.0, 3.5, 9.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 3 ? a : b).add(xs[i]);
    all.add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every number a RunningStats reports, as bit patterns.
std::vector<std::uint64_t> stat_bits(const RunningStats& s) {
  return {s.count(), bits(s.mean()), bits(s.variance()), bits(s.min()),
          bits(s.max())};
}

/// add_repeated(x, k) after `prefix` against k add(x) calls, for every k
/// in `ks` (ascending), bit for bit.
void expect_replay_exact(const std::vector<double>& prefix, double x,
                         const std::vector<std::size_t>& ks,
                         const std::string& what) {
  RunningStats looped;
  for (double p : prefix) looped.add(p);
  std::size_t added = 0;
  for (std::size_t k : ks) {
    for (; added < k; ++added) looped.add(x);
    RunningStats replayed;
    for (double p : prefix) replayed.add(p);
    replayed.add_repeated(x, k);
    EXPECT_EQ(stat_bits(replayed), stat_bits(looped))
        << what << " x=" << x << " k=" << k;
  }
}

const std::vector<std::size_t> kCounts{0, 1, 2, 50, 1000000};

TEST(RunningStatsTest, AddRepeatedMatchesAddLoopAfterRandomPrefixes) {
  std::mt19937_64 rng(20021);
  std::uniform_real_distribution<double> value(-1e3, 1e3);
  std::uniform_int_distribution<int> length(0, 20);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> prefix(static_cast<std::size_t>(length(rng)));
    for (double& p : prefix) p = value(rng);
    std::string what = "trial ";
    what += std::to_string(trial);
    expect_replay_exact(prefix, value(rng), kCounts, what);
    // The harness's case: the repeated value is already the last sample.
    if (!prefix.empty()) {
      expect_replay_exact(prefix, prefix.back(), kCounts, what);
    }
  }
}

TEST(RunningStatsTest, AddRepeatedMatchesAddLoopOnSpecialValues) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double small_sub = std::numeric_limits<double>::min() / 4;
  const std::vector<double> specials{0.0,  -0.0,      sub,  -sub,
                                     small_sub, inf, -inf, nan,
                                     1.0,  -2.5,      1e300, -1e-300};
  const std::vector<std::size_t> short_counts{0, 1, 2, 50};
  for (double x : specials) {
    expect_replay_exact({}, x, kCounts, "empty prefix");
    expect_replay_exact({1.5, -2.0, 7.25}, x, kCounts, "finite prefix");
    for (double y : specials) {
      expect_replay_exact({y}, x, short_counts, "prefix {y}");
      expect_replay_exact({1.0, y, 3.0}, x, short_counts, "prefix {1, y, 3}");
      expect_replay_exact({y, y}, x, short_counts, "prefix {y, y}");
    }
  }
}

TEST(RunningStatsTest, AddRepeatedOfASettledStreamOnlyCounts) {
  RunningStats s;
  s.add(2.0);
  s.add(2.0);
  // 2^40 add() calls would take hours.
  s.add_repeated(2.0, std::size_t{1} << 40);
  EXPECT_EQ(s.count(), (std::size_t{1} << 40) + 2);
  EXPECT_EQ(bits(s.mean()), bits(2.0));
  EXPECT_EQ(bits(s.variance()), bits(0.0));
}

TEST(StatsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(-90.0, -100.0), 0.1);
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
}

TEST(VirtualClockTest, AdvanceAndJump) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  c.advance(0.0);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(1.0);  // in the past: ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(4.0);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

TEST(StopwatchTest, MeasuresNonNegativeElapsed) {
  Stopwatch w;
  EXPECT_GE(w.elapsed_s(), 0.0);
  w.restart();
  EXPECT_GE(w.elapsed_s(), 0.0);
}

}  // namespace
}  // namespace kcoup::trace

// Tests for the trace utilities: statistics and clocks.

#include <gtest/gtest.h>

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

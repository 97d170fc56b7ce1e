// Tests for the timed parallel SP and LU paths, including the paper's §4.3
// observation that LU's diagonal-pipelined sweeps are "very sensitive to
// the small-message communication performance".

#include <gtest/gtest.h>

#include <stdexcept>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"

namespace kcoup {
namespace {

npb::TimedOptions sp_options() {
  npb::TimedOptions o;
  o.machine = machine::ibm_sp_p2sc();
  return o;
}

npb::TimedOptions lu_options() {
  npb::TimedOptions o;
  o.machine = machine::ibm_sp_p2sc();
  return o;
}

TEST(TimedSpTest, DeterministicAndCouplingWins) {
  const coupling::StudyOptions study{{4}, {}};
  const auto a = npb::sp::run_sp_parallel_study(12, 40, 4, sp_options(), study);
  const auto b = npb::sp::run_sp_parallel_study(12, 40, 4, sp_options(), study);
  EXPECT_EQ(a.actual_s, b.actual_s);
  EXPECT_EQ(a.by_length[0].prediction_s, b.by_length[0].prediction_s);
  EXPECT_LT(a.by_length[0].relative_error, a.summation_error);
}

TEST(TimedSpTest, SixKernelLoopMeasured) {
  const coupling::StudyOptions study{{2}, {}};
  const auto r = npb::sp::run_sp_parallel_study(12, 10, 4, sp_options(), study);
  EXPECT_EQ(r.isolated_means.size(), 6u);  // cf, txinvr, x, y, z, add
  ASSERT_EQ(r.by_length[0].chains.size(), 6u);
  EXPECT_EQ(r.by_length[0].chains[1].label, "Txinvr, X_Solve");
}

TEST(TimedSpTest, RefusesGridsTheNumericPortRefuses) {
  // SpRank refuses n < 5; the timed path used to run them.
  const coupling::StudyOptions study{{2}, {}};
  EXPECT_THROW(
      (void)npb::sp::run_sp_parallel_study(3, 2, 4, sp_options(), study),
      std::invalid_argument);
}

TEST(TimedLuTest, DeterministicAndCouplingWins) {
  const coupling::StudyOptions study{{3}, {}};
  const auto a = npb::lu::run_lu_parallel_study(12, 40, 4, lu_options(), study);
  const auto b = npb::lu::run_lu_parallel_study(12, 40, 4, lu_options(), study);
  EXPECT_EQ(a.actual_s, b.actual_s);
  EXPECT_EQ(a.by_length[0].prediction_s, b.by_length[0].prediction_s);
  EXPECT_LT(a.by_length[0].relative_error, a.summation_error);
}

TEST(TimedLuTest, DirectionReversalMakesSweepPairLatencySensitive) {
  // A kernel looping in isolation software-pipelines across repetitions, so
  // its steady-state mean hides the per-plane message latency (only the
  // fill is paid, once).  The {Ssor_LT, Ssor_UT} pair cannot pipeline: UT
  // sweeps the planes in the opposite direction, so the wavefront drains
  // and refills on every hand-off.  Scaling the network latency must
  // therefore raise the pair's coupling value — LU's latency sensitivity
  // (paper §4.3) shows up as *destructive coupling*, not as slower isolated
  // kernels.
  const coupling::StudyOptions study{{2}, {}};
  npb::TimedOptions fast = lu_options();
  npb::TimedOptions slow = lu_options();
  slow.machine.net_latency_s *= 10.0;

  const auto rf = npb::lu::run_lu_parallel_study(16, 5, 8, fast, study);
  const auto rs = npb::lu::run_lu_parallel_study(16, 5, 8, slow, study);
  // loop = {Ssor_Iter, Ssor_LT, Ssor_UT, Ssor_RS}; chain start 1 = {LT, UT}.
  const double c_fast = rf.by_length[0].chains[1].coupling();
  const double c_slow = rs.by_length[0].chains[1].coupling();
  EXPECT_GT(c_slow, c_fast);
  // Isolated sweeps stay nearly latency-free (pipelined steady state).
  const double lt_growth = rs.isolated_means[1] / rf.isolated_means[1];
  EXPECT_LT(lt_growth, 1.3);
}

TEST(TimedLuTest, RefusesRankGridsWiderThanTheGrid) {
  // P = 16 is a 4 x 4 pencil grid: n = 3 leaves ranks without grid points.
  const coupling::StudyOptions study{{2}, {}};
  EXPECT_THROW(
      (void)npb::lu::run_lu_parallel_study(3, 2, 16, lu_options(), study),
      std::invalid_argument);
  EXPECT_GT(
      npb::lu::run_lu_parallel_study(4, 2, 16, lu_options(), study).actual_s,
      0.0);
}

TEST(TimedLuTest, PipelineFillGrowsWithRankGrid) {
  // At fixed per-rank work... the sweep time includes (px + py - 2) fill
  // stages; compare P=4 (2+2 grid) against P=16 (4+4 grid) with the SAME
  // local extents by scaling n with the decomposition.
  const coupling::StudyOptions study{{1}, {}};
  const auto r4 = npb::lu::run_lu_parallel_study(16, 5, 4, lu_options(), study);
  const auto r16 =
      npb::lu::run_lu_parallel_study(32, 5, 16, lu_options(), study);
  // n doubled with px, py doubled: local nx, ny identical (8x8), nz doubled.
  // Per-plane work equal, twice the planes, plus a deeper pipeline: the
  // P=16 sweep must take MORE than twice the P=4 sweep time.
  EXPECT_GT(r16.isolated_means[1], 2.0 * r4.isolated_means[1]);
}

}  // namespace
}  // namespace kcoup

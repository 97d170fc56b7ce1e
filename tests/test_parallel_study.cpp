// Tests for the timed parallel path: the generic parallel measurement
// protocol (coupling/parallel_measurement.hpp) and the timing-only BT ranks
// (npb/bt/bt_model.hpp), where pipeline fill and load imbalance are
// emergent rather than analytically modeled.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"

namespace kcoup {
namespace {

TEST(ParallelMeasurementTest, SingleRankMatchesSerialSemantics) {
  // Two kernels that just charge fixed virtual time: every predictor is
  // exact and couplings are 1.
  const auto result = [&] {
    coupling::ParallelStudyResult out;
    (void)simmpi::run(1, {}, [&](simmpi::Comm& comm) {
      coupling::ParallelLoopApp app;
      app.loop = {{"A", [&comm] { comm.advance(0.25); }},
                  {"B", [&comm] { comm.advance(0.75); }}};
      app.iterations = 10;
      const coupling::StudyOptions options{{2}, {}};
      out = coupling::run_parallel_study(comm, app, options);
    });
    return out;
  }();
  EXPECT_NEAR(result.actual_s, 10.0, 1e-12);
  EXPECT_NEAR(result.summation_s, 10.0, 1e-12);
  ASSERT_EQ(result.by_length.size(), 1u);
  for (const auto& c : result.by_length[0].chains) {
    EXPECT_NEAR(c.coupling(), 1.0, 1e-12);
  }
  EXPECT_LT(result.by_length[0].relative_error, 1e-9);
}

TEST(ParallelMeasurementTest, EmptyLoopRejected) {
  EXPECT_THROW(
      (void)simmpi::run(1, {},
                        [&](simmpi::Comm& comm) {
                          coupling::ParallelLoopApp app;
                          const coupling::StudyOptions options{{1}, {}};
                          (void)coupling::run_parallel_study(comm, app,
                                                             options);
                        }),
      std::invalid_argument);
}

TEST(ParallelMeasurementTest, RepeatedChainLengthRejected) {
  // {2, 2} would measure and print every q=2 coupling twice.
  try {
    (void)simmpi::run(2, {}, [&](simmpi::Comm& comm) {
      coupling::ParallelLoopApp app;
      app.loop = {{"A", [&comm] { comm.advance(0.25); }},
                  {"B", [&comm] { comm.advance(0.75); }}};
      const coupling::StudyOptions options{{2, 1, 2}, {}};
      (void)coupling::run_parallel_study(comm, app, options);
    });
    FAIL() << "a repeated chain length was measured";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "run_parallel_study: chain length 2 given twice");
  }
}

TEST(ParallelMeasurementTest, BarrierMakesResultsGlobal) {
  // Rank 1 is 3x slower: the measured mean must reflect the slow rank on
  // every rank (max semantics via barrier).
  (void)simmpi::run(2, {}, [&](simmpi::Comm& comm) {
    coupling::ParallelLoopApp app;
    const double mine = comm.rank() == 0 ? 0.1 : 0.3;
    app.loop = {{"K", [&comm, mine] { comm.advance(mine); }}};
    app.iterations = 1;
    const coupling::StudyOptions options{{1}, {}};
    const auto r = coupling::run_parallel_study(comm, app, options);
    EXPECT_NEAR(r.isolated_means[0], 0.3, 1e-12);
  });
}

npb::TimedOptions timed_options() {
  npb::TimedOptions o;
  o.machine = machine::ibm_sp_p2sc();
  return o;
}

TEST(TimedBtTest, DeterministicAcrossRuns) {
  const coupling::StudyOptions study{{2}, {}};
  const auto a = npb::bt::run_bt_parallel_study(12, 20, 4, timed_options(), study);
  const auto b = npb::bt::run_bt_parallel_study(12, 20, 4, timed_options(), study);
  EXPECT_EQ(a.actual_s, b.actual_s);
  EXPECT_EQ(a.summation_s, b.summation_s);
  for (std::size_t i = 0; i < a.by_length[0].chains.size(); ++i) {
    EXPECT_EQ(a.by_length[0].chains[i].chain_time,
              b.by_length[0].chains[i].chain_time);
  }
}

TEST(TimedBtTest, RefusesGridsTheNumericPortRefuses) {
  // Refused before any rank starts: n below BtRank's minimum of 3 (the
  // timed ranks priced 15 of 16 ranks at zero work), and n = 3 on a 4 x 4
  // rank grid, which leaves some ranks without grid points.
  const coupling::StudyOptions study{{2}, {}};
  EXPECT_THROW((void)npb::bt::run_bt_parallel_study(1, 2, 16, timed_options(),
                                                    study),
               std::invalid_argument);
  EXPECT_THROW((void)npb::bt::run_bt_parallel_study(3, 2, 16, timed_options(),
                                                    study),
               std::invalid_argument);
  EXPECT_GT(npb::bt::run_bt_parallel_study(4, 2, 16, timed_options(), study)
                .actual_s,
            0.0);
}

TEST(TimedBtTest, CouplingPredictorBeatsSummationAtSmallClass) {
  const coupling::StudyOptions study{{2}, {}};
  const auto r = npb::bt::run_bt_parallel_study(12, 60, 4, timed_options(), study);
  EXPECT_GT(r.actual_s, 0.0);
  EXPECT_LT(r.by_length[0].relative_error, r.summation_error);
}

TEST(TimedBtTest, ConstructiveCouplingAtWorkstationGrid) {
  const coupling::StudyOptions study{{3}, {}};
  const auto r = npb::bt::run_bt_parallel_study(32, 20, 4, timed_options(), study);
  double mean = 0.0;
  for (const auto& c : r.by_length[0].chains) mean += c.coupling();
  mean /= static_cast<double>(r.by_length[0].chains.size());
  EXPECT_LT(mean, 0.98);  // the W regime is constructive in the timed path too
}

TEST(TimedBtTest, PipelineSerialisationIsEmergent) {
  // The distributed y sweep cannot speed up linearly with ranks: the
  // forward/backward hand-off serialises them.  Compare the isolated
  // Y_Solve mean at P=1 vs P=16: the speedup must be well below 16x.
  const coupling::StudyOptions study{{1}, {}};
  const auto r1 = npb::bt::run_bt_parallel_study(32, 4, 1, timed_options(), study);
  const auto r16 =
      npb::bt::run_bt_parallel_study(32, 4, 16, timed_options(), study);
  const double y1 = r1.isolated_means[2];
  const double y16 = r16.isolated_means[2];
  EXPECT_LT(y16, y1);              // still faster than serial
  EXPECT_GT(y16 * 16.0, 2.0 * y1); // but far from perfect scaling
  // X_Solve has no pipeline: it must scale much better than Y_Solve.
  const double x1 = r1.isolated_means[1];
  const double x16 = r16.isolated_means[1];
  EXPECT_LT(x16 / x1, y16 / y1);
}

TEST(TimedBtTest, JitterCreatesDestructiveCouplingUnderSync) {
  // With zero jitter ranks stay aligned; with jitter, alternating kernels
  // must re-absorb skew at every hand-off, raising the actual time.
  npb::TimedOptions no_jitter = timed_options();
  no_jitter.jitter = 0.0;
  npb::TimedOptions with_jitter = timed_options();
  with_jitter.jitter = 0.2;
  const coupling::StudyOptions study{{2}, {}};
  const auto a = npb::bt::run_bt_parallel_study(12, 30, 9, no_jitter, study);
  const auto b = npb::bt::run_bt_parallel_study(12, 30, 9, with_jitter, study);
  EXPECT_GT(b.actual_s, a.actual_s);
}

}  // namespace
}  // namespace kcoup

// Structural tests of the host-measured parallel BT study.  Host timings
// are noisy, so these assert structure and sanity bounds, not exact values.

#include <gtest/gtest.h>

#include "npb/bt/bt_app.hpp"
#include "npb/lu/lu_app.hpp"
#include "npb/sp/sp_app.hpp"
#include "trace/stopwatch.hpp"

namespace kcoup::npb::bt {
namespace {

TEST(ThreadCpuTimerTest, MeasuresOwnWorkOnly) {
  trace::ThreadCpuTimer t;
  // Burn a little CPU.
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 1e-9;
  const double busy = t.elapsed_s();
  EXPECT_GT(busy, 0.0);
  EXPECT_LT(busy, 5.0);
  t.restart();
  EXPECT_LT(t.elapsed_s(), busy + 1.0);
}

TEST(BtMeasuredTest, StudyProducesSaneStructure) {
  BtConfig cfg;
  cfg.n = 8;
  cfg.iterations = 10;
  simmpi::NetworkParams net;
  net.latency_s = 1e-5;
  const coupling::StudyOptions study{{2}, {10, 2}};
  const coupling::ParallelStudyResult r =
      run_bt_measured_study(cfg, 4, net, study);

  ASSERT_EQ(r.isolated_means.size(), 5u);
  for (double m : r.isolated_means) {
    EXPECT_GT(m, 0.0);
    EXPECT_LT(m, 10.0);  // an 8^3 kernel invocation is far below 10 s
  }
  EXPECT_GT(r.actual_s, 0.0);
  ASSERT_EQ(r.by_length.size(), 1u);
  ASSERT_EQ(r.by_length[0].chains.size(), 5u);
  for (const auto& c : r.by_length[0].chains) {
    // Host noise allows wide bounds, but a coupling value outside these
    // indicates a measurement-protocol bug, not noise.
    EXPECT_GT(c.coupling(), 0.2) << c.label;
    EXPECT_LT(c.coupling(), 5.0) << c.label;
  }
}

TEST(BtMeasuredTest, SolverStillConvergesUnderMeasurement) {
  // The measurement protocol runs kernels in unusual orders (isolated
  // loops, partial chains); the final full-application pass must still be
  // a numerically sane run.
  BtConfig cfg;
  cfg.n = 8;
  cfg.iterations = 30;
  simmpi::NetworkParams net;
  coupling::ParallelStudyResult unused;
  (void)simmpi::run(4, net, [&](simmpi::Comm& comm) {
    BtRank rank(cfg, comm);
    const auto app = coupling::charge_thread_cpu_time(
        bt_kernels(rank, cfg.iterations), comm);
    // A full application pass through the app bodies:
    app.reset();
    for (const auto& k : app.prologue) k.body();
    for (int it = 0; it < cfg.iterations; ++it) {
      for (const auto& k : app.loop) k.body();
    }
    const double err = rank.final_verify();
    EXPECT_LT(err, 1e-2);
  });
  (void)unused;
}

TEST(SpMeasuredTest, StudyProducesSaneStructure) {
  sp::SpConfig cfg;
  cfg.n = 8;
  cfg.iterations = 8;
  const coupling::StudyOptions study{{2}, {8, 2}};
  const auto r = sp::run_sp_measured_study(cfg, 4, {}, study);
  ASSERT_EQ(r.isolated_means.size(), 6u);
  for (double m : r.isolated_means) EXPECT_GT(m, 0.0);
  ASSERT_EQ(r.by_length[0].chains.size(), 6u);
}

TEST(LuMeasuredTest, StudyProducesSaneStructure) {
  lu::LuConfig cfg;
  cfg.n = 8;
  cfg.iterations = 8;
  const coupling::StudyOptions study{{3}, {8, 2}};
  const auto r = lu::run_lu_measured_study(cfg, 4, {}, study);
  ASSERT_EQ(r.isolated_means.size(), 4u);
  for (double m : r.isolated_means) EXPECT_GT(m, 0.0);
  ASSERT_EQ(r.by_length[0].chains.size(), 4u);
  for (const auto& c : r.by_length[0].chains) {
    EXPECT_GT(c.coupling(), 0.2) << c.label;
    EXPECT_LT(c.coupling(), 5.0) << c.label;
  }
}

}  // namespace
}  // namespace kcoup::npb::bt

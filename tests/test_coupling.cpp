// Tests for the paper's coupling algebra: the C_S definition (eqs. 1-2),
// the weighted-average coefficients of section 3 (validated against the
// paper's explicit four-kernel expansions for chain lengths 2 and 3), the
// measurement harness semantics, and the two predictors.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "coupling/analysis.hpp"
#include "coupling/kernel.hpp"
#include "coupling/measurement.hpp"
#include "coupling/study.hpp"

namespace kcoup::coupling {
namespace {

/// A kernel with a constant isolated cost plus a discount applied when the
/// previous invocation in the environment was a different kernel — a
/// controllable stand-in for cache-coupled kernels.
class SyntheticEnv {
 public:
  double invoke(int id, double base, double chain_discount) {
    const double t = (prev_ != -1 && prev_ != id) ? base - chain_discount : base;
    prev_ = id;
    return t;
  }
  void reset() { prev_ = -1; }

 private:
  int prev_ = -1;
};

struct SyntheticApp {
  SyntheticEnv env;
  std::vector<std::unique_ptr<CallableKernel>> kernels;
  LoopApplication app;

  SyntheticApp(const std::vector<std::pair<double, double>>& spec,
               int iterations) {
    for (std::size_t i = 0; i < spec.size(); ++i) {
      const auto [base, discount] = spec[i];
      std::string name = "K";
      name += std::to_string(i);
      kernels.push_back(std::make_unique<CallableKernel>(
          std::move(name), [this, i, base = base,
                                    discount = discount] {
            return env.invoke(static_cast<int>(i), base, discount);
          }));
      app.loop.push_back(kernels.back().get());
    }
    app.name = "synthetic";
    app.iterations = iterations;
    app.reset = [this] { env.reset(); };
  }
};

TEST(MeasurementTest, IsolatedMeanIsSteadyState) {
  SyntheticApp s({{10.0, 2.0}, {20.0, 4.0}}, 5);
  MeasurementHarness h(&s.app, MeasurementOptions{10, 2});
  // Isolated loops never alternate kernels, so no discount applies.
  EXPECT_DOUBLE_EQ(h.isolated_mean(0), 10.0);
  EXPECT_DOUBLE_EQ(h.isolated_mean(1), 20.0);
}

TEST(MeasurementTest, ChainMeanSeesInteraction) {
  SyntheticApp s({{10.0, 2.0}, {20.0, 4.0}}, 5);
  MeasurementHarness h(&s.app, MeasurementOptions{10, 2});
  // In the pair loop both kernels always follow the other: 8 + 16 = 24.
  EXPECT_DOUBLE_EQ(h.chain_mean(0, 2), 24.0);
}

TEST(MeasurementTest, ChainWrapsCyclically) {
  SyntheticApp s({{1.0, 0.0}, {2.0, 0.0}, {4.0, 0.0}}, 1);
  MeasurementHarness h(&s.app, MeasurementOptions{4, 1});
  // Chain of length 2 starting at the last kernel wraps to the first.
  EXPECT_DOUBLE_EQ(h.chain_mean(2, 2), 5.0);
}

TEST(MeasurementTest, InvalidArgumentsThrow) {
  SyntheticApp s({{1.0, 0.0}}, 1);
  MeasurementHarness h(&s.app, MeasurementOptions{2, 0});
  EXPECT_THROW((void)h.chain_mean(0, 0), std::invalid_argument);
  EXPECT_THROW((void)h.chain_mean(0, 2), std::invalid_argument);
  EXPECT_THROW((void)h.chain_mean(5, 1), std::invalid_argument);
}

TEST(MeasurementTest, ActualTotalCountsEverything) {
  SyntheticApp s({{1.0, 0.0}, {2.0, 0.0}}, 10);
  MeasurementHarness h(&s.app, MeasurementOptions{3, 1});
  EXPECT_DOUBLE_EQ(h.actual_total(), 30.0);
}

TEST(MeasurementTest, EpilogueStatsHonourEpilogueRepetitions) {
  SyntheticApp s({{1.0, 0.0}}, 2);
  int epilogue_calls = 0;
  CallableKernel final("final", [&epilogue_calls] {
    ++epilogue_calls;
    return 7.0;
  });
  s.app.epilogue.push_back(&final);

  MeasurementOptions options;
  options.repetitions = 50;  // must NOT drive the epilogue sample count
  options.epilogue_repetitions = 5;
  MeasurementHarness h(&s.app, options);
  const trace::RunningStats stats = h.epilogue_stats(0);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_EQ(epilogue_calls, 5);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
}

TEST(CouplingValueTest, NoInteractionGivesUnity) {
  SyntheticApp s({{3.0, 0.0}, {5.0, 0.0}, {7.0, 0.0}}, 2);
  MeasurementHarness h(&s.app, MeasurementOptions{5, 1});
  const auto means = h.all_isolated_means();
  const auto chains = measure_chains(h, 2, means);
  ASSERT_EQ(chains.size(), 3u);
  for (const auto& c : chains) {
    EXPECT_DOUBLE_EQ(c.coupling(), 1.0) << c.label;
  }
}

TEST(CouplingValueTest, ConstructiveCouplingBelowOne) {
  SyntheticApp s({{10.0, 2.0}, {10.0, 2.0}}, 2);
  MeasurementHarness h(&s.app, MeasurementOptions{5, 1});
  const auto means = h.all_isolated_means();
  const auto chains = measure_chains(h, 2, means);
  // P_S = 16, sum P_k = 20 -> C = 0.8.
  EXPECT_DOUBLE_EQ(chains[0].coupling(), 0.8);
}

TEST(CouplingValueTest, DestructiveCouplingAboveOne) {
  SyntheticApp s({{10.0, -3.0}, {10.0, -3.0}}, 2);
  MeasurementHarness h(&s.app, MeasurementOptions{5, 1});
  const auto means = h.all_isolated_means();
  const auto chains = measure_chains(h, 2, means);
  EXPECT_DOUBLE_EQ(chains[0].coupling(), 1.3);
}

TEST(CouplingValueTest, ChainMembersAndLabels) {
  SyntheticApp s({{1, 0}, {1, 0}, {1, 0}, {1, 0}}, 1);
  MeasurementHarness h(&s.app, MeasurementOptions{2, 0});
  const auto means = h.all_isolated_means();
  const auto chains = measure_chains(h, 3, means);
  ASSERT_EQ(chains.size(), 4u);
  EXPECT_EQ(chains[0].members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(chains[3].members, (std::vector<std::size_t>{3, 0, 1}));
  EXPECT_EQ(chains[0].label, "K0, K1, K2");
  EXPECT_TRUE(chains[1].contains(3));
  EXPECT_FALSE(chains[0].contains(3));
}

/// Build a synthetic ChainCoupling directly (for algebra-only tests).
ChainCoupling make_chain(std::vector<std::size_t> members, double p_chain,
                         double p_sum) {
  ChainCoupling c;
  c.start = members.front();
  c.length = members.size();
  c.members = std::move(members);
  c.chain_time = p_chain;
  c.isolated_sum = p_sum;
  return c;
}

TEST(CoefficientTest, MatchesPaperPairwiseExpansion) {
  // Paper section 3, four kernels A,B,C,D with pairwise couplings:
  //   alpha = (C_AB P_AB + C_DA P_DA) / (P_AB + P_DA)   etc.
  const double p_ab = 3.0, p_bc = 5.0, p_cd = 7.0, p_da = 11.0;
  const double s_ab = 4.0, s_bc = 4.5, s_cd = 8.0, s_da = 10.0;
  std::vector<ChainCoupling> chains{
      make_chain({0, 1}, p_ab, s_ab),
      make_chain({1, 2}, p_bc, s_bc),
      make_chain({2, 3}, p_cd, s_cd),
      make_chain({3, 0}, p_da, s_da),
  };
  const auto alpha = coupling_coefficients(4, chains);
  const double c_ab = p_ab / s_ab, c_bc = p_bc / s_bc, c_cd = p_cd / s_cd,
               c_da = p_da / s_da;
  EXPECT_NEAR(alpha[0], (c_ab * p_ab + c_da * p_da) / (p_ab + p_da), 1e-14);
  EXPECT_NEAR(alpha[1], (c_ab * p_ab + c_bc * p_bc) / (p_ab + p_bc), 1e-14);
  EXPECT_NEAR(alpha[2], (c_bc * p_bc + c_cd * p_cd) / (p_bc + p_cd), 1e-14);
  EXPECT_NEAR(alpha[3], (c_cd * p_cd + c_da * p_da) / (p_cd + p_da), 1e-14);
}

TEST(CoefficientTest, MatchesPaperThreeChainExpansion) {
  // Paper section 3, chain length 3 over A,B,C,D:
  //   alpha = (C_ABC P_ABC + C_CDA P_CDA + C_DAB P_DAB)
  //           / (P_ABC + P_CDA + P_DAB)
  const double p[4] = {3.0, 5.0, 7.0, 11.0};   // P_ABC, P_BCD, P_CDA, P_DAB
  const double s[4] = {4.0, 4.5, 8.0, 10.0};
  std::vector<ChainCoupling> chains{
      make_chain({0, 1, 2}, p[0], s[0]),
      make_chain({1, 2, 3}, p[1], s[1]),
      make_chain({2, 3, 0}, p[2], s[2]),
      make_chain({3, 0, 1}, p[3], s[3]),
  };
  const auto alpha = coupling_coefficients(4, chains);
  auto c = [&](int i) { return p[i] / s[i]; };
  EXPECT_NEAR(alpha[0],
              (c(0) * p[0] + c(2) * p[2] + c(3) * p[3]) / (p[0] + p[2] + p[3]),
              1e-14);
  EXPECT_NEAR(alpha[1],
              (c(0) * p[0] + c(1) * p[1] + c(3) * p[3]) / (p[0] + p[1] + p[3]),
              1e-14);
  EXPECT_NEAR(alpha[2],
              (c(0) * p[0] + c(1) * p[1] + c(2) * p[2]) / (p[0] + p[1] + p[2]),
              1e-14);
  EXPECT_NEAR(alpha[3],
              (c(1) * p[1] + c(2) * p[2] + c(3) * p[3]) / (p[1] + p[2] + p[3]),
              1e-14);
}

TEST(CoefficientTest, UnityCouplingsGiveUnityCoefficients) {
  std::vector<ChainCoupling> chains{
      make_chain({0, 1}, 6.0, 6.0),
      make_chain({1, 0}, 9.0, 9.0),
  };
  const auto alpha = coupling_coefficients(2, chains);
  EXPECT_DOUBLE_EQ(alpha[0], 1.0);
  EXPECT_DOUBLE_EQ(alpha[1], 1.0);
}

TEST(PredictorTest, SummationMatchesPaperFormula) {
  // Summation = Tinit + I * (sum of kernel means) + Tfinal  (section 4.1).
  PredictionInputs in;
  in.isolated_means = {1.0, 2.0, 3.0};
  in.prologue_s = 10.0;
  in.epilogue_s = 5.0;
  in.iterations = 60;
  EXPECT_DOUBLE_EQ(summation_prediction(in), 10.0 + 60.0 * 6.0 + 5.0);
}

TEST(PredictorTest, CouplingPredictionExactForHomogeneousKernels) {
  // Identical kernels with a uniform chain discount: every pairwise
  // coupling is identical and the coupling predictor is exact.
  SyntheticApp s({{10.0, 2.0}, {10.0, 2.0}, {10.0, 2.0}}, 50);
  const StudyOptions options{{2}, MeasurementOptions{8, 2}};
  const StudyResult r = run_study(s.app, options);
  ASSERT_EQ(r.by_length.size(), 1u);
  // Exact up to the cold first invocation of the measured run.
  EXPECT_LT(r.by_length[0].relative_error, 0.005);
  EXPECT_GT(r.summation_error, 0.2);  // ~30 predicted vs ~24 actual
}

TEST(PredictorTest, CouplingPredictionNearExactForHeterogeneousKernels) {
  SyntheticApp s({{10.0, 2.0}, {12.0, 2.0}, {14.0, 2.0}}, 50);
  const StudyOptions options{{2, 3}, MeasurementOptions{8, 2}};
  const StudyResult r = run_study(s.app, options);
  for (const auto& cl : r.by_length) {
    EXPECT_LT(cl.relative_error, 0.01) << "q=" << cl.length;
  }
  EXPECT_GT(r.summation_error, 0.05);  // summation misses the discounts
}

TEST(PredictorTest, BestSelectsSmallestError) {
  StudyResult r;
  r.by_length.push_back(ChainLengthResult{2, {}, {}, 0.0, 0.10});
  r.by_length.push_back(ChainLengthResult{3, {}, {}, 0.0, 0.02});
  r.by_length.push_back(ChainLengthResult{4, {}, {}, 0.0, 0.05});
  ASSERT_NE(r.best(), nullptr);
  EXPECT_EQ(r.best()->length, 3u);
}

TEST(ChainCouplingTest, ZeroIsolatedSumYieldsNaNNotInfinity) {
  // Regression: a chain whose kernels measured to exactly zero used to
  // divide by zero; C_S is undefined there and must report NaN.
  ChainCoupling c;
  c.chain_time = 1.0;
  c.isolated_sum = 0.0;
  EXPECT_TRUE(std::isnan(c.coupling()));
  c.isolated_sum = 2.0;
  EXPECT_DOUBLE_EQ(c.coupling(), 0.5);
}

TEST(AnalysisTest, AlphaPredictionMatchesCouplingPrediction) {
  // alpha_prediction with coefficients from coupling_coefficients must be
  // bit-identical to coupling_prediction over the same chains — it is the
  // serving layer's precomputed fast path.
  std::vector<ChainCoupling> chains;
  for (std::size_t start = 0; start < 3; ++start) {
    ChainCoupling c;
    c.start = start;
    c.length = 2;
    c.members = {start, (start + 1) % 3};
    c.chain_time = 1.5 + 0.25 * static_cast<double>(start);
    c.isolated_sum = 2.0;
    chains.push_back(c);
  }
  PredictionInputs in;
  in.isolated_means = {0.5, 0.75, 1.0};
  in.iterations = 7;
  in.prologue_s = 0.125;
  in.epilogue_s = 0.25;
  const std::vector<double> alpha = coupling_coefficients(3, chains);
  EXPECT_EQ(alpha_prediction(in, alpha), coupling_prediction(in, chains));
}

TEST(AnalysisTest, AlphaPredictionRejectsSizeMismatch) {
  PredictionInputs in;
  in.isolated_means = {1.0, 2.0};
  const std::vector<double> alpha{1.0};
  EXPECT_THROW((void)alpha_prediction(in, alpha), std::invalid_argument);
}

TEST(StudyTest, DeterministicAcrossRuns) {
  SyntheticApp s1({{10.0, 2.0}, {20.0, 1.0}}, 30);
  SyntheticApp s2({{10.0, 2.0}, {20.0, 1.0}}, 30);
  const StudyOptions options{{2}, MeasurementOptions{10, 2}};
  const StudyResult a = run_study(s1.app, options);
  const StudyResult b = run_study(s2.app, options);
  EXPECT_DOUBLE_EQ(a.actual_s, b.actual_s);
  EXPECT_DOUBLE_EQ(a.summation_s, b.summation_s);
  EXPECT_DOUBLE_EQ(a.by_length[0].prediction_s, b.by_length[0].prediction_s);
}

}  // namespace
}  // namespace kcoup::coupling

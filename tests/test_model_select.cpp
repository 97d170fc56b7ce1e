// Unit tests for the src/model/ subsystem: the candidate-term registry,
// the dense solver, leave-one-out cross-validated model selection with its
// deterministic tie-break, piecewise/changepoint fitting, and
// coupling-transition detection.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "coupling/database.hpp"
#include "model/piecewise.hpp"
#include "model/select.hpp"
#include "model/terms.hpp"
#include "model/transitions.hpp"

namespace kcoup::model {
namespace {

// --- Term registry ----------------------------------------------------------

TEST(TermRegistryTest, IdsAreStableAndDense) {
  const auto registry = term_registry();
  ASSERT_GE(registry.size(), 15u);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i].id, i);
    EXPECT_EQ(&term_at(static_cast<std::uint32_t>(i)), &registry[i]);
  }
  // Pinned names: these ids are a serialization contract — renumbering or
  // renaming any of them breaks every packed snapshot in the wild.
  EXPECT_STREQ(term_at(0).name, "1");
  EXPECT_STREQ(term_at(1).name, "log2(P)");
  EXPECT_STREQ(term_at(4).name, "1/P");
  EXPECT_STREQ(term_at(12).name, "n^3/P");
  EXPECT_EQ(kConstantTermId, 0u);
  EXPECT_THROW((void)term_at(10000), std::out_of_range);
}

TEST(TermRegistryTest, EvaluationsMatchTheirNames) {
  EXPECT_DOUBLE_EQ(term_at(0).eval(7, 9), 1.0);
  EXPECT_DOUBLE_EQ(term_at(1).eval(7, 8), 3.0);
  EXPECT_DOUBLE_EQ(term_at(1).eval(7, 1), 0.0);  // log2 guard at P = 1
  EXPECT_DOUBLE_EQ(term_at(4).eval(7, 4), 0.25);
  EXPECT_DOUBLE_EQ(term_at(12).eval(2, 4), 2.0);
}

// --- Dense solver -----------------------------------------------------------

TEST(SolveDenseTest, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10]  ->  x = [1; 3]
  std::vector<double> a{2, 1, 1, 3};
  std::vector<double> b{5, 10};
  ASSERT_TRUE(solve_dense(a, b, 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveDenseTest, PivotsOnZeroDiagonal) {
  std::vector<double> a{0, 1, 1, 0};
  std::vector<double> b{2, 3};
  ASSERT_TRUE(solve_dense(a, b, 2));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(SolveDenseTest, RejectsSingularAndBadSizes) {
  std::vector<double> a{1, 2, 2, 4};  // rank 1
  std::vector<double> b{1, 2};
  EXPECT_FALSE(solve_dense(a, b, 2));
  std::vector<double> short_a{1};
  std::vector<double> short_b{1, 2};
  EXPECT_FALSE(solve_dense(short_a, short_b, 2));
}

// --- Model selection --------------------------------------------------------

std::vector<ModelSample> grid_samples(double (*truth)(double, double)) {
  std::vector<ModelSample> samples;
  for (double n : {12.0, 24.0, 36.0, 64.0}) {
    for (double p : {1.0, 2.0, 4.0, 8.0, 16.0}) {
      samples.push_back({n, p, truth(n, p)});
    }
  }
  return samples;
}

TEST(SelectModelTest, RecoversExactSingleTermForm) {
  const auto samples =
      grid_samples([](double n, double p) { return 2e-9 * n * n * n / p; });
  const SelectedModel m = select_model(samples);
  ASSERT_EQ(m.terms.size(), 1u);
  EXPECT_EQ(m.terms[0].id, 12u);  // n^3/P
  EXPECT_NEAR(m.terms[0].coefficient, 2e-9, 1e-15);
  EXPECT_EQ(m.cv_rmse, 0.0);  // exact fits clamp to exactly zero
  EXPECT_FALSE(m.degenerate);
  EXPECT_EQ(m.term_names(), "n^3/P");
}

TEST(SelectModelTest, RecoversExactTwoTermForm) {
  const auto samples = grid_samples(
      [](double n, double p) { return 3e-3 + 2e-9 * n * n * n / p; });
  const SelectedModel m = select_model(samples);
  ASSERT_EQ(m.terms.size(), 2u);
  EXPECT_EQ(m.terms[0].id, 0u);
  EXPECT_EQ(m.terms[1].id, 12u);
  EXPECT_NEAR(m.terms[0].coefficient, 3e-3, 1e-9);
  EXPECT_NEAR(m.terms[1].coefficient, 2e-9, 1e-15);
  EXPECT_EQ(m.term_names(), "1+n^3/P");
  // Extrapolation to an unseen configuration is exact for an exact form.
  const double truth = 3e-3 + 2e-9 * 80.0 * 80.0 * 80.0 / 64.0;
  EXPECT_NEAR(m.evaluate(80, 64), truth, 1e-9 * truth);
}

TEST(SelectModelTest, DeterministicAcrossRepeats) {
  const auto samples = grid_samples([](double n, double p) {
    return 1e-3 + 5e-7 * n * n / std::sqrt(p) +
           (p > 1 ? 2e-4 * std::log2(p) : 0.0);
  });
  const SelectedModel a = select_model(samples);
  const SelectedModel b = select_model(samples);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].id, b.terms[i].id);
    EXPECT_EQ(a.terms[i].coefficient, b.terms[i].coefficient);
  }
  EXPECT_EQ(a.cv_rmse, b.cv_rmse);
}

TEST(SelectModelTest, TieBreakPrefersLowestTermIds) {
  // n fixed: 1/P (id 4), n/P (id 10), n^2/P (id 11) and n^3/P (id 12) are
  // all proportional, and each fits y = c/P exactly.  The tie must resolve
  // to the lexicographically smallest id set — {4} — not to whichever
  // candidate last-ulp noise happens to favor.
  std::vector<ModelSample> samples;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    samples.push_back({12.0, p, 0.02 / p});
  }
  const SelectedModel m = select_model(samples);
  ASSERT_EQ(m.terms.size(), 1u);
  EXPECT_EQ(m.terms[0].id, 4u);
  EXPECT_EQ(m.cv_rmse, 0.0);
}

TEST(SelectModelTest, DegenerateInputsYieldFlaggedConstant) {
  // One sample, and many copies of one point: no spread to fit against.
  for (const std::size_t copies : {std::size_t{1}, std::size_t{6}}) {
    const std::vector<ModelSample> samples(copies,
                                           ModelSample{12.0, 4.0, 0.5});
    const SelectedModel m = select_model(samples);
    EXPECT_TRUE(m.degenerate);
    ASSERT_EQ(m.terms.size(), 1u);
    EXPECT_EQ(m.terms[0].id, kConstantTermId);
    EXPECT_DOUBLE_EQ(m.terms[0].coefficient, 0.5);
    EXPECT_TRUE(std::isnan(m.cv_rmse));
    EXPECT_TRUE(std::isfinite(m.evaluate(12.0, 9.0)));
  }
}

TEST(SelectModelTest, CrossValidationRejectsOverfitOnNoisyData) {
  // Deterministic alternating "noise" on a one-term truth: the winner must
  // still evaluate close to the truth away from the samples, rather than
  // contorting through the noise.
  std::vector<ModelSample> samples;
  int sign = 1;
  for (double n : {12.0, 24.0, 36.0, 64.0}) {
    for (double p : {1.0, 2.0, 4.0, 8.0, 16.0}) {
      const double clean = 1e-3 + 1e-8 * n * n * n / p;
      samples.push_back({n, p, clean * (1.0 + 0.02 * sign)});
      sign = -sign;
    }
  }
  const SelectedModel m = select_model(samples);
  EXPECT_FALSE(m.degenerate);
  EXPECT_LT(m.cv_rmse, 0.05);
  const double truth = 1e-3 + 1e-8 * 48.0 * 48.0 * 48.0 / 32.0;
  EXPECT_NEAR(m.evaluate(48, 32), truth, 0.1 * truth);
}

// --- Piecewise fitting ------------------------------------------------------

TEST(PiecewiseTest, SingleRegimeStaysUnsplit) {
  const auto samples =
      grid_samples([](double n, double p) { return 1e-8 * n * n * n / p; });
  const PiecewiseModel pw = fit_piecewise(samples);
  EXPECT_TRUE(pw.breakpoints.empty());
  ASSERT_EQ(pw.segments.size(), 1u);
  EXPECT_EQ(pw.segments[0].model.term_names(), "n^3/P");
}

TEST(PiecewiseTest, LocatesKnownBreakpointWithinOneGridStep) {
  // Two regimes with a transition between P = 8 and P = 16: volume-bound
  // scaling below, latency-dominated (constant + log) above.
  std::vector<ModelSample> samples;
  for (double n : {12.0, 24.0, 36.0}) {
    for (double p : {1.0, 2.0, 4.0, 8.0}) {
      samples.push_back({n, p, 1e-6 * n * n * n / p});
    }
    for (double p : {16.0, 32.0, 64.0, 128.0}) {
      samples.push_back({n, p, 2e-3 + 1e-4 * std::log2(p)});
    }
  }
  const PiecewiseModel pw = fit_piecewise(samples);
  ASSERT_EQ(pw.breakpoints.size(), 1u);
  ASSERT_EQ(pw.segments.size(), 2u);
  // The boundary must land between the straddling grid points.
  EXPECT_GT(pw.breakpoints[0], 8.0);
  EXPECT_LT(pw.breakpoints[0], 16.0);
  EXPECT_EQ(pw.segments[0].p_max, 8.0);
  EXPECT_EQ(pw.segments[1].p_min, 16.0);
  // Each side recovers its own exact form and routes evaluation by P.
  EXPECT_EQ(pw.segments[0].model.term_names(), "n^3/P");
  EXPECT_EQ(pw.segments[1].model.term_names(), "1+log2(P)");
  const double low = 1e-6 * 24.0 * 24.0 * 24.0 / 4.0;
  EXPECT_NEAR(pw.evaluate(24, 4), low, 1e-9 * low);
  const double high = 2e-3 + 1e-4 * std::log2(256.0);  // extrapolated
  EXPECT_NEAR(pw.evaluate(24, 256), high, 1e-6 * high);
}

TEST(PiecewiseTest, DeterministicAcrossRepeats) {
  std::vector<ModelSample> samples;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    const double base = p <= 8.0 ? 1e-2 / p : 5e-3;
    for (double n : {12.0, 24.0}) samples.push_back({n, p, base});
  }
  const PiecewiseModel a = fit_piecewise(samples);
  const PiecewiseModel b = fit_piecewise(samples);
  EXPECT_EQ(a.breakpoints, b.breakpoints);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].model.term_names(),
              b.segments[i].model.term_names());
  }
}

TEST(PiecewiseTest, EmptyAndTinyInputsDegradeToFlaggedConstant) {
  const PiecewiseModel empty = fit_piecewise({});
  ASSERT_EQ(empty.segments.size(), 1u);
  EXPECT_TRUE(empty.segments[0].model.degenerate);
  EXPECT_TRUE(std::isfinite(empty.evaluate(12, 4)));

  const std::vector<ModelSample> one{{12.0, 4.0, 0.25}};
  const PiecewiseModel tiny = fit_piecewise(one);
  ASSERT_EQ(tiny.segments.size(), 1u);
  EXPECT_TRUE(tiny.segments[0].model.degenerate);
  EXPECT_DOUBLE_EQ(tiny.evaluate(12, 64), 0.25);
}

// --- Changepoint / transition detection -------------------------------------

TEST(ChangepointTest, FindsSingleLevelShiftWithinOneGridStep) {
  // Coupling-like series: ~1.02 through P = 8, ~1.35 from P = 16 on.
  std::vector<SeriesPoint> series{{1, 1.02},  {2, 1.021}, {4, 1.019},
                                  {8, 1.02},  {16, 1.35}, {32, 1.351},
                                  {64, 1.349}};
  const auto cps = detect_changepoints(series);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_DOUBLE_EQ(cps[0].x_lo, 8.0);
  EXPECT_DOUBLE_EQ(cps[0].x_hi, 16.0);
  EXPECT_DOUBLE_EQ(cps[0].boundary, 12.0);
  EXPECT_NEAR(cps[0].before, 1.02, 1e-3);
  EXPECT_NEAR(cps[0].after, 1.35, 1e-3);
}

TEST(ChangepointTest, FlatAndJitterySeriessYieldNoTransitions) {
  std::vector<SeriesPoint> flat;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) flat.push_back({p, 1.1});
  EXPECT_TRUE(detect_changepoints(flat).empty());

  // Jitter well below the min_jump threshold must not be reported.
  std::vector<SeriesPoint> jitter;
  int sign = 1;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    jitter.push_back({p, 1.1 * (1.0 + 0.001 * sign)});
    sign = -sign;
  }
  EXPECT_TRUE(detect_changepoints(jitter).empty());
}

TEST(ChangepointTest, FindsTwoTransitions) {
  std::vector<SeriesPoint> series{{1, 1.0},  {2, 1.0},   {4, 1.2},
                                  {8, 1.2},  {16, 1.5},  {32, 1.5}};
  const auto cps = detect_changepoints(series);
  ASSERT_EQ(cps.size(), 2u);
  EXPECT_DOUBLE_EQ(cps[0].boundary, 3.0);
  EXPECT_DOUBLE_EQ(cps[1].boundary, 12.0);
}

TEST(TransitionTest, DetectsCouplingTransitionFromDatabaseRecords) {
  coupling::CouplingDatabase db;
  // One (app, config, q=2, start=0) series over ranks with a known level
  // shift between P = 8 and P = 16; isolated_sum fixed at 1 so coupling ==
  // chain_time.
  for (int p : {1, 2, 4, 8}) {
    db.record({{"app", "S", p, 2, 0}, 1.02, 1.0});
  }
  for (int p : {16, 32, 64}) {
    db.record({{"app", "S", p, 2, 0}, 1.35, 1.0});
  }
  // A flat series for another chain start: must produce nothing.
  for (int p : {1, 2, 4, 8, 16, 32}) {
    db.record({{"app", "S", p, 2, 1}, 1.10, 1.0});
  }
  const auto transitions = detect_coupling_transitions(db);
  ASSERT_EQ(transitions.size(), 1u);
  const CouplingTransition& t = transitions[0];
  EXPECT_EQ(t.application, "app");
  EXPECT_EQ(t.config, "S");
  EXPECT_EQ(t.chain_length, 2u);
  EXPECT_EQ(t.chain_start, 0u);
  EXPECT_EQ(t.ranks_lo, 8);
  EXPECT_EQ(t.ranks_hi, 16);
  EXPECT_DOUBLE_EQ(t.boundary, 12.0);
  EXPECT_NEAR(t.coupling_before, 1.02, 1e-9);
  EXPECT_NEAR(t.coupling_after, 1.35, 1e-9);
}

TEST(TransitionTest, ShortSeriesAreSkipped) {
  coupling::CouplingDatabase db;
  for (int p : {1, 4, 16}) {  // 3 points < 2 * min_segment_points
    db.record({{"app", "S", p, 2, 0}, p < 8 ? 1.0 : 2.0, 1.0});
  }
  EXPECT_TRUE(detect_coupling_transitions(db).empty());
}

}  // namespace
}  // namespace kcoup::model

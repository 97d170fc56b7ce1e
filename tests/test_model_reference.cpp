// Differential pin of the model search: select_model and fit_piecewise
// must return bit-identical models to the straightforward algorithm they
// replaced, which rebuilt every candidate's normal equations from the
// samples for the full fit and for each leave-one-out fold, and searched
// every range of the changepoint scan afresh.  That algorithm is kept below,
// unchanged, as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coupling/scaling_model.hpp"
#include "model/piecewise.hpp"
#include "model/select.hpp"
#include "model/terms.hpp"

namespace kcoup::model {
namespace {
namespace reference {

constexpr double kExactScoreClamp = 1e-12;

struct Design {
  std::vector<std::vector<double>> rows;  ///< rows[i][t]: term t at sample i
  std::vector<double> w;                  ///< 1/y^2 (1 when y == 0)
  std::vector<double> y;
};

Design build_design(std::span<const ModelSample> samples) {
  const auto registry = term_registry();
  Design d;
  d.rows.reserve(samples.size());
  d.w.reserve(samples.size());
  d.y.reserve(samples.size());
  for (const ModelSample& s : samples) {
    std::vector<double> row(registry.size());
    for (const Term& t : registry) row[t.id] = t.eval(s.n, s.p);
    d.rows.push_back(std::move(row));
    d.w.push_back(s.seconds != 0.0 ? 1.0 / (s.seconds * s.seconds) : 1.0);
    d.y.push_back(s.seconds);
  }
  return d;
}

constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

/// Weighted least squares over the candidate columns, optionally leaving
/// sample `skip` out.  False when the normal equations are singular or the
/// solution is non-finite.
bool fit_candidate(const Design& d, std::span<const std::uint32_t> ids,
                   std::size_t skip, std::vector<double>* coefficients) {
  const std::size_t k = ids.size();
  std::vector<double> ata(k * k, 0.0);
  std::vector<double> atb(k, 0.0);
  for (std::size_t s = 0; s < d.rows.size(); ++s) {
    if (s == skip) continue;
    const std::vector<double>& full_row = d.rows[s];
    for (std::size_t i = 0; i < k; ++i) {
      const double ri = full_row[ids[i]];
      atb[i] += d.w[s] * ri * d.y[s];
      for (std::size_t j = 0; j < k; ++j) {
        ata[i * k + j] += d.w[s] * ri * full_row[ids[j]];
      }
    }
  }
  if (!coupling::solve_dense(ata, atb, k)) return false;
  for (const double c : atb) {
    if (!std::isfinite(c)) return false;
  }
  *coefficients = std::move(atb);
  return true;
}

double predict_row(const Design& d, std::size_t s,
                   std::span<const std::uint32_t> ids,
                   std::span<const double> coefficients) {
  double t = 0.0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    t += coefficients[j] * d.rows[s][ids[j]];
  }
  return t;
}

/// RMS relative error of `coefficients` over every sample (absolute where
/// y == 0, matching the fit's weighting).
double rms_relative_error(const Design& d, std::span<const std::uint32_t> ids,
                          std::span<const double> coefficients) {
  double err2 = 0.0;
  for (std::size_t s = 0; s < d.rows.size(); ++s) {
    const double pred = predict_row(d, s, ids, coefficients);
    const double rel =
        d.y[s] != 0.0 ? (pred - d.y[s]) / d.y[s] : pred;
    err2 += rel * rel;
  }
  return std::sqrt(err2 / static_cast<double>(d.rows.size()));
}

SelectedModel constant_fallback(const Design& d) {
  // The weighted least-squares solution for the lone constant column —
  // always well defined, always finite.
  double sw = 0.0;
  double swy = 0.0;
  for (std::size_t s = 0; s < d.rows.size(); ++s) {
    sw += d.w[s];
    swy += d.w[s] * d.y[s];
  }
  SelectedModel m;
  m.degenerate = true;
  m.terms = {{kConstantTermId, sw > 0.0 ? swy / sw : 0.0}};
  const std::uint32_t ids[] = {kConstantTermId};
  const double coefficients[] = {m.terms[0].coefficient};
  m.fit_rmse = d.rows.empty() ? 0.0 : rms_relative_error(d, ids, coefficients);
  return m;
}

SelectedModel select_model(std::span<const ModelSample> samples,
                           const SelectOptions& options) {
  const Design d = build_design(samples);

  std::set<std::pair<double, double>> distinct;
  for (const ModelSample& s : samples) distinct.insert({s.n, s.p});
  if (distinct.size() < 2) return constant_fallback(d);

  const std::size_t registry_size = term_registry().size();
  SelectedModel best;
  double best_cv = std::numeric_limits<double>::infinity();
  std::vector<double> coefficients;
  std::vector<double> loo;

  const std::size_t max_terms = std::min(options.max_terms, registry_size);
  for (std::size_t k = 1; k <= max_terms; ++k) {
    // Leave-one-out fits use m-1 samples; require strictly more samples
    // than terms so no fold is underdetermined by count alone.
    if (samples.size() < k + 1 || distinct.size() < k) continue;
    std::vector<std::uint32_t> ids(k);
    for (std::size_t i = 0; i < k; ++i) ids[i] = static_cast<std::uint32_t>(i);
    bool more = true;
    while (more) {
      if (fit_candidate(d, ids, kNoSkip, &coefficients)) {
        double cv2 = 0.0;
        bool valid = true;
        for (std::size_t s = 0; s < samples.size(); ++s) {
          if (!fit_candidate(d, ids, s, &loo)) {
            valid = false;
            break;
          }
          const double pred = predict_row(d, s, ids, loo);
          const double rel =
              d.y[s] != 0.0 ? (pred - d.y[s]) / d.y[s] : pred;
          cv2 += rel * rel;
        }
        if (valid) {
          double cv = std::sqrt(cv2 / static_cast<double>(samples.size()));
          if (cv <= kExactScoreClamp) cv = 0.0;
          // Strict <: the enumeration order (size ascending, ids
          // lexicographic) makes the first of any tie — fewest terms, then
          // smallest id set — the deterministic winner.
          if (std::isfinite(cv) && cv < best_cv) {
            best_cv = cv;
            best.terms.clear();
            for (std::size_t i = 0; i < k; ++i) {
              best.terms.push_back({ids[i], coefficients[i]});
            }
            best.cv_rmse = cv;
            best.fit_rmse = rms_relative_error(d, ids, coefficients);
            best.degenerate = false;
          }
        }
      }
      more = false;
      for (std::size_t i = k; i-- > 0;) {
        if (ids[i] + (k - i) < registry_size) {
          ++ids[i];
          for (std::size_t j = i + 1; j < k; ++j) ids[j] = ids[j - 1] + 1;
          more = true;
          break;
        }
      }
    }
  }

  if (best.terms.empty()) return constant_fallback(d);
  return best;
}

std::size_t distinct_p(std::span<const ModelSample> sorted) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].p != sorted[i - 1].p) ++count;
  }
  return count;
}

struct Builder {
  std::span<const ModelSample> samples;  ///< sorted by (p, n, seconds)
  const PiecewiseOptions& options;
  std::size_t splits_left = 0;
  PiecewiseModel out;

  void fit_range(std::size_t lo, std::size_t hi) {
    const auto range = samples.subspan(lo, hi - lo);
    SelectedModel parent = reference::select_model(range, options.select);

    if (splits_left > 0 && !parent.degenerate &&
        std::isfinite(parent.cv_rmse) && parent.cv_rmse > 0.0) {
      // Scan boundaries between adjacent distinct P values, ascending;
      // strict < keeps the lowest boundary on a tied score.
      double best_score = std::numeric_limits<double>::infinity();
      std::size_t best_split = 0;
      for (std::size_t b = lo + 1; b < hi; ++b) {
        if (samples[b].p == samples[b - 1].p) continue;
        const auto left = samples.subspan(lo, b - lo);
        const auto right = samples.subspan(b, hi - b);
        if (distinct_p(left) < options.min_distinct_p ||
            distinct_p(right) < options.min_distinct_p) {
          continue;
        }
        const SelectedModel ml =
            reference::select_model(left, options.select);
        const SelectedModel mr =
            reference::select_model(right, options.select);
        if (ml.degenerate || mr.degenerate || !std::isfinite(ml.cv_rmse) ||
            !std::isfinite(mr.cv_rmse)) {
          continue;
        }
        const double nl = static_cast<double>(left.size());
        const double nr = static_cast<double>(right.size());
        const double score = std::sqrt(
            (nl * ml.cv_rmse * ml.cv_rmse + nr * mr.cv_rmse * mr.cv_rmse) /
            (nl + nr));
        if (score < best_score) {
          best_score = score;
          best_split = b;
        }
      }
      if (best_split != 0 &&
          best_score <
              (1.0 - options.min_relative_gain) * parent.cv_rmse) {
        --splits_left;
        // Leftmost-first recursion: the left side may claim further budget
        // before the right side is visited — a fixed, documented order.
        fit_range(lo, best_split);
        out.breakpoints.push_back(
            (samples[best_split - 1].p + samples[best_split].p) / 2.0);
        fit_range(best_split, hi);
        return;
      }
    }

    ModelSegment seg;
    seg.p_min = samples[lo].p;
    seg.p_max = samples[hi - 1].p;
    seg.sample_count = hi - lo;
    seg.model = std::move(parent);
    out.segments.push_back(std::move(seg));
  }
};

PiecewiseModel fit_piecewise(std::span<const ModelSample> samples,
                             const PiecewiseOptions& options) {
  std::vector<ModelSample> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const ModelSample& a, const ModelSample& b) {
              if (a.p != b.p) return a.p < b.p;
              if (a.n != b.n) return a.n < b.n;
              return a.seconds < b.seconds;
            });

  Builder builder{sorted, options,
                  options.max_segments > 0 ? options.max_segments - 1 : 0,
                  {}};
  if (sorted.empty()) {
    // No data at all: a single flagged constant segment, never an empty
    // (and thus unevaluable) model.
    ModelSegment seg;
    seg.model = reference::select_model({}, options.select);
    builder.out.segments.push_back(std::move(seg));
  } else {
    builder.fit_range(0, sorted.size());
  }
  return std::move(builder.out);
}


}  // namespace reference

// --- Random sample sets -----------------------------------------------------

enum class Truth {
  kOneTerm,    ///< c1 t1: exact, so fits tie at the clamped score 0
  kTwoTerm,    ///< c1 t1 + c2 t2: exact
  kNoisy,      ///< the two-term truth with 10% noise
  kTwoRegime,  ///< t1 up to a split P, t2 above it, 2% noise
  kThreeRegime,
  kZero,
  kConstant,
  kNoise,  ///< pure noise
  kCount
};

/// A seeded sample set: 1-30 samples over 1-8 distinct P (4-8 for the
/// regime truths), with duplicated points, in random order.
std::vector<ModelSample> random_samples(std::mt19937_64& rng, Truth truth) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto below = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const bool regimes =
      truth == Truth::kTwoRegime || truth == Truth::kThreeRegime;
  std::vector<double> ps = {1, 2, 3, 4, 8, 9, 16, 25, 32, 36, 64, 128};
  std::vector<double> ns = {12, 24, 33, 36, 64, 102, 162};
  std::shuffle(ps.begin(), ps.end(), rng);
  std::shuffle(ns.begin(), ns.end(), rng);
  ps.resize(regimes ? 4 + below(5) : 1 + below(8));
  ns.resize(1 + below(3));

  const auto registry = term_registry();
  const Term* terms[3];
  double coefficients[3];
  for (int i = 0; i < 3; ++i) {
    terms[i] = &registry[below(registry.size())];
    const double c = std::ldexp(0.5 + unit(rng), -static_cast<int>(below(30)));
    coefficients[i] = unit(rng) < 0.2 ? -c : c;
  }
  auto term = [&](int i, double n, double p) {
    return coefficients[i] * terms[i]->eval(n, p);
  };
  std::sort(ps.begin(), ps.end());
  const double split_lo = ps[ps.size() / 3];
  const double split_hi = ps[2 * ps.size() / 3];
  auto seconds = [&](double n, double p) {
    switch (truth) {
      case Truth::kOneTerm: return term(0, n, p);
      case Truth::kTwoTerm: return term(0, n, p) + term(1, n, p);
      case Truth::kNoisy:
        return (term(0, n, p) + term(1, n, p)) *
               (1.0 + 0.1 * (unit(rng) - 0.5));
      case Truth::kTwoRegime:
        return term(p <= split_hi ? 0 : 1, n, p) *
               (1.0 + 0.02 * (unit(rng) - 0.5));
      case Truth::kThreeRegime:
        return term(p <= split_lo ? 0 : p <= split_hi ? 1 : 2, n, p) *
               (1.0 + 0.02 * (unit(rng) - 0.5));
      case Truth::kZero: return 0.0;
      case Truth::kConstant: return coefficients[0];
      default: return coefficients[0] * unit(rng);
    }
  };

  std::vector<ModelSample> samples;
  const std::size_t m = 1 + below(30);
  while (samples.size() < m) {
    if (!samples.empty() && unit(rng) < 0.2) {
      samples.push_back(samples[below(samples.size())]);  // duplicate point
      continue;
    }
    const double n = ns[below(ns.size())];
    const double p = ps[below(ps.size())];
    samples.push_back({n, p, seconds(n, p)});
  }
  return samples;
}

Truth random_truth(std::mt19937_64& rng) {
  return static_cast<Truth>(rng() % static_cast<std::size_t>(Truth::kCount));
}

/// Bit equality, with every NaN equal to every NaN.
bool same(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_model(const SelectedModel& got, const SelectedModel& want,
                       const std::string& where) {
  ASSERT_EQ(got.terms.size(), want.terms.size()) << where;
  for (std::size_t i = 0; i < want.terms.size(); ++i) {
    EXPECT_EQ(got.terms[i].id, want.terms[i].id) << where;
    EXPECT_TRUE(same(got.terms[i].coefficient, want.terms[i].coefficient))
        << where << " term " << i << ": " << got.terms[i].coefficient
        << " vs " << want.terms[i].coefficient;
  }
  EXPECT_TRUE(same(got.cv_rmse, want.cv_rmse))
      << where << ": " << got.cv_rmse << " vs " << want.cv_rmse;
  EXPECT_TRUE(same(got.fit_rmse, want.fit_rmse))
      << where << ": " << got.fit_rmse << " vs " << want.fit_rmse;
  EXPECT_EQ(got.degenerate, want.degenerate) << where;
}

TEST(ModelSearchReferenceTest, SelectModelMatchesReferenceBitForBit) {
  std::mt19937_64 rng(17);
  std::size_t exact = 0;
  for (int set = 0; set < 300; ++set) {
    const std::vector<ModelSample> samples =
        random_samples(rng, random_truth(rng));
    SelectOptions options;
    options.max_terms = 1 + set % 4;
    const SelectedModel want = reference::select_model(samples, options);
    expect_same_model(select_model(samples, options), want,
                      "set " + std::to_string(set));
    if (want.cv_rmse == 0.0) ++exact;
    if (HasFailure()) return;
  }
  EXPECT_GT(exact, 0u);  // clamped ties were exercised
}

TEST(ModelSearchReferenceTest, FitPiecewiseMatchesReferenceBitForBit) {
  std::mt19937_64 rng(2002);
  std::size_t split = 0;
  for (int set = 0; set < 160; ++set) {
    // Every other set has regimes to find, so the split and memo paths run.
    Truth truth = random_truth(rng);
    if (set % 2 == 0) {
      truth = set % 4 == 0 ? Truth::kTwoRegime : Truth::kThreeRegime;
    }
    const std::vector<ModelSample> samples = random_samples(rng, truth);
    PiecewiseOptions options;
    options.select.max_terms = 1 + set % 4;
    options.max_segments = 1 + (set / 4) % 4;
    const PiecewiseModel want = reference::fit_piecewise(samples, options);
    const PiecewiseModel got = fit_piecewise(samples, options);
    const std::string where = "set " + std::to_string(set);
    ASSERT_EQ(got.breakpoints.size(), want.breakpoints.size()) << where;
    for (std::size_t i = 0; i < want.breakpoints.size(); ++i) {
      EXPECT_TRUE(same(got.breakpoints[i], want.breakpoints[i])) << where;
    }
    ASSERT_EQ(got.segments.size(), want.segments.size()) << where;
    for (std::size_t i = 0; i < want.segments.size(); ++i) {
      const std::string seg = where + " segment " + std::to_string(i);
      EXPECT_TRUE(same(got.segments[i].p_min, want.segments[i].p_min)) << seg;
      EXPECT_TRUE(same(got.segments[i].p_max, want.segments[i].p_max)) << seg;
      EXPECT_EQ(got.segments[i].sample_count, want.segments[i].sample_count)
          << seg;
      expect_same_model(got.segments[i].model, want.segments[i].model, seg);
    }
    if (want.segments.size() > 1) ++split;
    if (HasFailure()) return;
  }
  EXPECT_GT(split, 0u);  // the split and memo paths were exercised
}

}  // namespace
}  // namespace kcoup::model

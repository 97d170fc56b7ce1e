#include "model/select.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

namespace kcoup::model {

namespace {

/// Scores at or below this clamp to exactly 0: an exact fit's residual is
/// last-ulp noise, and without the clamp two exact candidates would rank by
/// that noise instead of tying (and resolving to the simpler form).
constexpr double kExactScoreClamp = 1e-12;

/// The samples' values of every registry term, row-major.
struct Design {
  std::size_t terms = 0;     ///< registry size
  std::vector<double> rows;  ///< rows[s * terms + t]: term t at sample s
  std::vector<double> w;     ///< 1/y^2 (1 when y == 0)
  std::vector<double> y;

  [[nodiscard]] std::size_t size() const { return y.size(); }
  [[nodiscard]] const double* row(std::size_t s) const {
    return rows.data() + s * terms;
  }
};

Design build_design(std::span<const ModelSample> samples) {
  const auto registry = term_registry();
  Design d;
  d.terms = registry.size();
  d.rows.reserve(samples.size() * d.terms);
  d.w.reserve(samples.size());
  d.y.reserve(samples.size());
  for (const ModelSample& s : samples) {
    for (const Term& t : registry) d.rows.push_back(t.eval(s.n, s.p));
    d.w.push_back(s.seconds != 0.0 ? 1.0 / (s.seconds * s.seconds) : 1.0);
    d.y.push_back(s.seconds);
  }
  return d;
}

/// Weighted normal equations of every ordered registry term pair (a, b),
/// once per leave-one-out fold and once for the full sample set.  Slot f
/// < m leaves sample f out; slot m holds all samples.  Each entry is
/// summed from 0.0 in sample order, as (w_s * r_a) * r_b and
/// (w_s * r_a) * y_s, so a candidate's k x k system, read off at its term
/// ids, is the same additions in the same order as building it from the
/// samples directly: the solver sees bit-identical input.  (a, b) and
/// (b, a) are separate entries because their products round differently.
struct FoldEquations {
  std::size_t terms = 0;
  /// Per slot: the terms x terms sums of (w_s * r_a) * r_b, row a and
  /// column b, then the terms sums of (w_s * r_a) * y_s.
  std::vector<double> sums;

  [[nodiscard]] std::size_t stride() const { return terms * (terms + 1); }
  double* slot(std::size_t i) { return sums.data() + i * stride(); }
  [[nodiscard]] const double* slot(std::size_t i) const {
    return sums.data() + i * stride();
  }

  void add_sample(const Design& d, std::size_t into, std::size_t s) {
    double* ata = slot(into);
    double* atb = ata + terms * terms;
    const double* r = d.row(s);
    for (std::size_t a = 0; a < terms; ++a) {
      const double wr = d.w[s] * r[a];
      atb[a] += wr * d.y[s];
      for (std::size_t b = 0; b < terms; ++b) ata[a * terms + b] += wr * r[b];
    }
  }
};

FoldEquations build_fold_equations(const Design& d) {
  const std::size_t m = d.size();
  FoldEquations e{d.terms, {}};
  e.sums.assign((m + 1) * e.stride(), 0.0);
  // The full slot doubles as the running prefix: fold f starts from the
  // sums over samples [0, f), skips f in place and adds f+1 .. m-1.
  for (std::size_t f = 0; f < m; ++f) {
    std::copy_n(e.slot(m), e.stride(), e.slot(f));
    for (std::size_t s = f + 1; s < m; ++s) e.add_sample(d, f, s);
    e.add_sample(d, m, f);
  }
  return e;
}

/// Weighted least squares over the candidate columns from slot `slot` of
/// the shared equations; `ata` is a work buffer.  False when the system is
/// singular or the solution non-finite.
bool fit_candidate(const FoldEquations& e, std::size_t slot,
                   std::span<const std::uint32_t> ids, std::vector<double>& ata,
                   std::vector<double>& coefficients) {
  const std::size_t k = ids.size();
  const std::size_t t = e.terms;
  const double* full_ata = e.slot(slot);
  const double* full_atb = full_ata + t * t;
  ata.resize(k * k);
  coefficients.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    coefficients[i] = full_atb[ids[i]];
    for (std::size_t j = 0; j < k; ++j) {
      ata[i * k + j] = full_ata[ids[i] * t + ids[j]];
    }
  }
  if (!solve_dense(ata, coefficients, k)) return false;
  for (const double c : coefficients) {
    if (!std::isfinite(c)) return false;
  }
  return true;
}

double predict_row(const Design& d, std::size_t s,
                   std::span<const std::uint32_t> ids,
                   std::span<const double> coefficients) {
  double t = 0.0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    t += coefficients[j] * d.row(s)[ids[j]];
  }
  return t;
}

/// RMS relative error of `coefficients` over every sample (absolute where
/// y == 0, matching the fit's weighting).
double rms_relative_error(const Design& d, std::span<const std::uint32_t> ids,
                          std::span<const double> coefficients) {
  double err2 = 0.0;
  for (std::size_t s = 0; s < d.size(); ++s) {
    const double pred = predict_row(d, s, ids, coefficients);
    const double rel =
        d.y[s] != 0.0 ? (pred - d.y[s]) / d.y[s] : pred;
    err2 += rel * rel;
  }
  return std::sqrt(err2 / static_cast<double>(d.size()));
}

SelectedModel constant_fallback(const Design& d) {
  // The weighted least-squares solution for the lone constant column —
  // always well defined, always finite.
  double sw = 0.0;
  double swy = 0.0;
  for (std::size_t s = 0; s < d.size(); ++s) {
    sw += d.w[s];
    swy += d.w[s] * d.y[s];
  }
  SelectedModel m;
  m.degenerate = true;
  m.terms = {{kConstantTermId, sw > 0.0 ? swy / sw : 0.0}};
  const std::uint32_t ids[] = {kConstantTermId};
  const double coefficients[] = {m.terms[0].coefficient};
  m.fit_rmse = d.size() == 0 ? 0.0 : rms_relative_error(d, ids, coefficients);
  return m;
}

}  // namespace

double SelectedModel::evaluate(double n, double p) const {
  double t = 0.0;
  for (const FittedTerm& ft : terms) {
    t += ft.coefficient * term_at(ft.id).eval(n, p);
  }
  return t;
}

std::string SelectedModel::term_names() const {
  std::string s;
  for (const FittedTerm& ft : terms) {
    if (!s.empty()) s += '+';
    s += term_at(ft.id).name;
  }
  return s;
}

std::string SelectedModel::to_string() const {
  std::string s;
  for (const FittedTerm& ft : terms) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.3e*%s", s.empty() ? "" : " + ",
                  ft.coefficient, term_at(ft.id).name);
    s += buf;
  }
  if (degenerate) s += " [degenerate]";
  return s;
}

bool solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t k) {
  if (a.size() != k * k || b.size() != k) return false;
  for (std::size_t col = 0; col < k; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::fabs(a[col * k + col]);
    for (std::size_t r = col + 1; r < k; ++r) {
      const double v = std::fabs(a[r * k + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(a[col * k + c], a[pivot * k + c]);
      }
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * k + col];
    for (std::size_t r = col + 1; r < k; ++r) {
      const double f = a[r * k + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < k; ++c) a[r * k + c] -= f * a[col * k + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t col = k; col-- > 0;) {
    double s = b[col];
    for (std::size_t c = col + 1; c < k; ++c) s -= a[col * k + c] * b[c];
    b[col] = s / a[col * k + col];
  }
  return true;
}

SelectedModel select_model(std::span<const ModelSample> samples,
                           const SelectOptions& options) {
  const Design d = build_design(samples);

  std::set<std::pair<double, double>> distinct;
  for (const ModelSample& s : samples) distinct.insert({s.n, s.p});
  if (distinct.size() < 2) return constant_fallback(d);

  const FoldEquations equations = build_fold_equations(d);
  const std::size_t m = samples.size();
  const std::size_t registry_size = term_registry().size();
  SelectedModel best;
  double best_cv = std::numeric_limits<double>::infinity();
  std::vector<double> ata;
  std::vector<double> coefficients;

  const std::size_t max_terms = std::min(options.max_terms, registry_size);
  for (std::size_t k = 1; k <= max_terms; ++k) {
    // Leave-one-out fits use m-1 samples; require strictly more samples
    // than terms so no fold is underdetermined by count alone.
    if (m < k + 1 || distinct.size() < k) continue;
    std::vector<std::uint32_t> ids(k);
    for (std::size_t i = 0; i < k; ++i) ids[i] = static_cast<std::uint32_t>(i);
    bool more = true;
    while (more) {
      double cv2 = 0.0;
      bool valid = true;
      for (std::size_t s = 0; s < m; ++s) {
        // cv2 only grows, and / and sqrt are monotone, so once this bound
        // reaches the incumbent the final score cannot beat it under the
        // strict < below.  The clamp cannot revive the candidate either:
        // an incumbent is 0 or above kExactScoreClamp.
        if (std::sqrt(cv2 / static_cast<double>(m)) >= best_cv ||
            !fit_candidate(equations, s, ids, ata, coefficients)) {
          valid = false;
          break;
        }
        const double pred = predict_row(d, s, ids, coefficients);
        const double rel = d.y[s] != 0.0 ? (pred - d.y[s]) / d.y[s] : pred;
        cv2 += rel * rel;
      }
      if (valid) {
        double cv = std::sqrt(cv2 / static_cast<double>(m));
        if (cv <= kExactScoreClamp) cv = 0.0;
        // Strict <: the enumeration order (size ascending, ids
        // lexicographic) makes the first of any tie — fewest terms, then
        // smallest id set — the deterministic winner.  The full-sample fit
        // runs only for a candidate about to win, and a singular one
        // disqualifies it.
        if (std::isfinite(cv) && cv < best_cv &&
            fit_candidate(equations, m, ids, ata, coefficients)) {
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

}  // namespace kcoup::model

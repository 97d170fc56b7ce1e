#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "model/terms.hpp"

namespace kcoup::model {

/// One measured configuration for the model search: grid extent n,
/// processor count P, and the per-invocation kernel time.
struct ModelSample {
  double n = 0;
  double p = 1;
  double seconds = 0;
};

/// One selected term with its fitted coefficient.
struct FittedTerm {
  std::uint32_t id = 0;
  double coefficient = 0;
};

/// The winner of the cross-validated model search: a sparse linear
/// combination of registry terms.
struct SelectedModel {
  /// Chosen terms in ascending id order (the canonical spelling that the
  /// tie-break and the serialization both use).
  std::vector<FittedTerm> terms;
  /// Leave-one-out cross-validation RMS relative error — the selection
  /// score.  NaN for degenerate (flagged constant) models, where no
  /// cross-validation was possible.
  double cv_rmse = std::numeric_limits<double>::quiet_NaN();
  /// In-sample RMS relative error of the final fit over all samples.
  double fit_rmse = 0.0;
  /// True when the samples could not support a fit (fewer than two distinct
  /// (n, P) points, or every candidate singular) and the model fell back to
  /// the flagged constant form — never silently NaN coefficients.
  bool degenerate = false;

  [[nodiscard]] double evaluate(double n, double p) const;

  /// Term names joined with '+' in id order, e.g. "1+n^3/P" — the compact
  /// form string golden tests pin (coefficient-free, so stable under
  /// last-ulp jitter).
  [[nodiscard]] std::string term_names() const;
  /// Human-readable "3.0e-03*1 + 2.1e-09*n^3/P" form for reports.
  [[nodiscard]] std::string to_string() const;
};

struct SelectOptions {
  /// Maximum terms per candidate subset.  3 keeps the search exhaustive
  /// (~575 subsets of the 15-term registry) while bounding variance on the
  /// handful-of-cells sample sets snapshots fit from.
  std::size_t max_terms = 3;
};

/// Exhaustive cross-validated model selection: every registry subset of at
/// most max_terms terms is scored by leave-one-out RMS relative error
/// (weighted least squares, weights 1/y^2, so the fit minimizes relative
/// error), and the best score wins.
///
/// Deterministic by construction: candidates are enumerated in a fixed
/// order (subset size ascending, then lexicographic term ids), a candidate
/// replaces the incumbent only on a *strictly* smaller score, and scores
/// below 1e-12 are clamped to zero so exact fits tie exactly instead of
/// ranking by last-ulp noise.  Ties therefore resolve to the fewest terms,
/// then the lexicographically smallest id set.
///
/// Candidates whose full or any leave-one-out fit is singular or yields
/// non-finite coefficients are disqualified.  When no candidate survives —
/// or the samples hold fewer than two distinct (n, P) points — the result
/// is the flagged constant model (degenerate = true).
[[nodiscard]] SelectedModel select_model(std::span<const ModelSample> samples,
                                         const SelectOptions& options = {});

/// Solve the dense linear system A x = b (row-major, k x k) with partial
/// pivoting, leaving x in b.  The least-squares fits of select_model call
/// it; exposed for tests.  Returns false when A is singular.
[[nodiscard]] bool solve_dense(std::vector<double>& a, std::vector<double>& b,
                               std::size_t k);

}  // namespace kcoup::model

#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

namespace kcoup::coupling {

/// The composition algebra of the paper (§3) assumes per-kernel analytical
/// models exist ("assume that we have manually analyzed these two functions
/// such that we have modelA and modelB").  This module supplies such models
/// as linear combinations of scaling basis terms in the problem size n and
/// the processor count P,
///
///   E(n, P) = sum_j c_j * phi_j(n, P),
///
/// with coefficients fitted by linear least squares from a handful of
/// measured configurations.  Combined with reused coupling values
/// (database.hpp) this closes the loop the paper sketches: predict a
/// configuration that was never run at all.
///
/// The serve path fits the cross-validated piecewise models of src/model/
/// instead; this fixed-basis fit is the baseline `bench/ext_model_fit` and
/// `bench/ext_scaling_prediction` compare against.
struct ScalingBasis {
  std::vector<std::string> names;
  std::vector<std::function<double(double n, double p)>> terms;

  [[nodiscard]] std::size_t size() const { return terms.size(); }

  /// Basis suited to the NPB kernels: volume work n^3/P, distributed-line
  /// surface work n^2/sqrt(P), per-message latency count log2(P), and a
  /// constant.
  [[nodiscard]] static ScalingBasis npb_default();
};

/// One measured configuration.
struct ScalingSample {
  double n = 0;        ///< grid extent
  double p = 1;        ///< processor count
  double seconds = 0;  ///< measured per-invocation kernel time
};

/// A fitted per-kernel model.
class KernelScalingModel {
 public:
  /// Least-squares fit of `basis` to `samples` (requires at least as many
  /// samples as basis terms; throws std::invalid_argument otherwise, or if
  /// the normal equations are singular — e.g. all samples identical).
  [[nodiscard]] static KernelScalingModel fit(
      ScalingBasis basis, std::span<const ScalingSample> samples);

  /// fit(), degrading gracefully: degenerate inputs — too few samples,
  /// duplicate (n, P) points making the normal equations singular, or a
  /// solve that produces non-finite coefficients — yield a *flagged
  /// constant model* (the weighted mean on the basis's "1" term, all other
  /// coefficients zero, degenerate() == true) instead of throwing.  NaN
  /// coefficients can never be silently baked into a snapshot.  Throws
  /// std::invalid_argument only when `samples` is empty or the basis has
  /// no "1" term to carry the constant.
  [[nodiscard]] static KernelScalingModel fit_or_constant(
      ScalingBasis basis, std::span<const ScalingSample> samples);

  [[nodiscard]] double evaluate(double n, double p) const;

  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coefficients_;
  }
  /// Root-mean-square relative error of the fit over its own samples.
  [[nodiscard]] double fit_rms_relative_error() const { return fit_error_; }
  [[nodiscard]] const ScalingBasis& basis() const { return basis_; }
  /// True when fit_or_constant() fell back to the flagged constant model —
  /// the prediction carries no scaling information, only the sample mean.
  [[nodiscard]] bool degenerate() const { return degenerate_; }

  /// Human-readable "c0 * n^3/P + c1 * ..." form for reports.
  [[nodiscard]] std::string to_string() const;

 private:
  ScalingBasis basis_;
  std::vector<double> coefficients_;
  double fit_error_ = 0.0;
  bool degenerate_ = false;
};

/// Solve the dense linear system A x = b (row-major, k x k) with partial
/// pivoting.  Exposed for tests; used by the least-squares fit.  Returns
/// false when A is singular.
[[nodiscard]] bool solve_dense(std::vector<double>& a, std::vector<double>& b,
                               std::size_t k);

}  // namespace kcoup::coupling

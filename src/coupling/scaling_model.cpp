#include "coupling/scaling_model.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace kcoup::coupling {

ScalingBasis ScalingBasis::npb_default() {
  ScalingBasis b;
  b.names = {"n^3/P", "n^2/sqrt(P)", "log2(P)", "1"};
  b.terms = {
      [](double n, double p) { return n * n * n / p; },
      [](double n, double p) { return n * n / std::sqrt(p); },
      [](double, double p) { return p > 1.0 ? std::log2(p) : 0.0; },
      [](double, double) { return 1.0; },
  };
  return b;
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

KernelScalingModel KernelScalingModel::fit(
    ScalingBasis basis, std::span<const ScalingSample> samples) {
  const std::size_t k = basis.size();
  if (k == 0) throw std::invalid_argument("scaling fit: empty basis");
  if (samples.size() < k) {
    throw std::invalid_argument(
        "scaling fit: need at least as many samples as basis terms");
  }

  // Weighted normal equations (A^T W A) x = A^T W b with weights 1/b^2:
  // minimises the *relative* error, so microsecond kernels (Add) are fitted
  // as carefully as second-scale sweeps.
  std::vector<double> ata(k * k, 0.0);
  std::vector<double> atb(k, 0.0);
  for (const ScalingSample& s : samples) {
    const double w =
        s.seconds != 0.0 ? 1.0 / (s.seconds * s.seconds) : 1.0;
    std::vector<double> row(k);
    for (std::size_t j = 0; j < k; ++j) row[j] = basis.terms[j](s.n, s.p);
    for (std::size_t i = 0; i < k; ++i) {
      atb[i] += w * row[i] * s.seconds;
      for (std::size_t j = 0; j < k; ++j) {
        ata[i * k + j] += w * row[i] * row[j];
      }
    }
  }
  if (!solve_dense(ata, atb, k)) {
    throw std::invalid_argument(
        "scaling fit: singular normal equations (degenerate samples)");
  }

  KernelScalingModel m;
  m.basis_ = std::move(basis);
  m.coefficients_ = std::move(atb);

  double err2 = 0.0;
  for (const ScalingSample& s : samples) {
    const double pred = m.evaluate(s.n, s.p);
    if (s.seconds != 0.0) {
      const double rel = (pred - s.seconds) / s.seconds;
      err2 += rel * rel;
    }
  }
  m.fit_error_ = std::sqrt(err2 / static_cast<double>(samples.size()));
  return m;
}

KernelScalingModel KernelScalingModel::fit_or_constant(
    ScalingBasis basis, std::span<const ScalingSample> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("scaling fit: no samples");
  }
  if (samples.size() >= basis.size()) {
    try {
      KernelScalingModel m = fit(basis, samples);
      bool finite = true;
      for (const double c : m.coefficients()) {
        if (!std::isfinite(c)) finite = false;
      }
      if (finite) return m;
    } catch (const std::invalid_argument&) {
      // Singular normal equations: fall through to the constant model.
    }
  }
  std::size_t constant_index = basis.size();
  for (std::size_t j = 0; j < basis.names.size(); ++j) {
    if (basis.names[j] == "1") constant_index = j;
  }
  if (constant_index == basis.size()) {
    throw std::invalid_argument(
        "scaling fit: basis has no constant term for the degenerate "
        "fallback");
  }
  // Weighted mean with the same 1/y^2 weights fit() uses — the exact
  // least-squares solution restricted to the constant column.
  double sw = 0.0;
  double swy = 0.0;
  for (const ScalingSample& s : samples) {
    const double w = s.seconds != 0.0 ? 1.0 / (s.seconds * s.seconds) : 1.0;
    sw += w;
    swy += w * s.seconds;
  }
  KernelScalingModel m;
  m.basis_ = std::move(basis);
  m.coefficients_.assign(m.basis_.size(), 0.0);
  m.coefficients_[constant_index] = swy / sw;
  m.degenerate_ = true;
  double err2 = 0.0;
  for (const ScalingSample& s : samples) {
    const double pred = m.coefficients_[constant_index];
    const double rel =
        s.seconds != 0.0 ? (pred - s.seconds) / s.seconds : pred;
    err2 += rel * rel;
  }
  m.fit_error_ = std::sqrt(err2 / static_cast<double>(samples.size()));
  return m;
}

double KernelScalingModel::evaluate(double n, double p) const {
  double t = 0.0;
  for (std::size_t j = 0; j < coefficients_.size(); ++j) {
    t += coefficients_[j] * basis_.terms[j](n, p);
  }
  return t;
}

std::string KernelScalingModel::to_string() const {
  std::string s;
  for (std::size_t j = 0; j < coefficients_.size(); ++j) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.3e * %s", j ? " + " : "",
                  coefficients_[j], basis_.names[j].c_str());
    s += buf;
  }
  return s;
}

}  // namespace kcoup::coupling

#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

namespace kcoup::trace {

/// Streaming sample statistics (Welford's algorithm).
///
/// Used by the measurement harness to summarise repeated kernel timings
/// (the paper averages each kernel over 50 repetitions) without storing the
/// individual samples.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  void merge(const RunningStats& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    n_ += other.n_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept {
    return mean_ * static_cast<double>(n_);
  }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Relative error |predicted - actual| / actual, the accuracy metric used in
/// every evaluation table of the paper.  Returns +inf for actual == 0.
[[nodiscard]] inline double relative_error(double predicted,
                                           double actual) noexcept {
  if (actual == 0.0) return std::numeric_limits<double>::infinity();
  return std::fabs(predicted - actual) / std::fabs(actual);
}

}  // namespace kcoup::trace

#include "coupling/measurement.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "trace/stats.hpp"

namespace kcoup::coupling {

double MeasurementHarness::isolated_mean(std::size_t index) const {
  return chain_mean(index, 1);
}

double MeasurementHarness::chain_mean(std::size_t start,
                                      std::size_t length) const {
  return chain_stats(start, length).mean();
}

trace::RunningStats MeasurementHarness::chain_stats(std::size_t start,
                                                    std::size_t length) const {
  const std::size_t n = app_->loop_size();
  if (n == 0) throw std::invalid_argument("chain_mean: empty loop");
  if (length == 0 || length > n) {
    throw std::invalid_argument("chain_mean: chain length must be in [1, N]");
  }
  if (start >= n) throw std::invalid_argument("chain_mean: start out of range");

  app_->reset();
  (void)state_repeats();
  trace::RunningStats stats;
  const int passes = options_.warmup + options_.repetitions;
  double t = 0.0;
  bool fixed = false;
  int pass = 0;
  for (; pass < passes && !fixed; ++pass) {
    t = 0.0;
    for (std::size_t i = 0; i < length; ++i) {
      t += app_->loop[(start + i) % n]->invoke();
    }
    fixed = state_repeats();
    if (pass >= options_.warmup) stats.add(t);
  }
  // Every pass after a fixed point costs what the last one did.
  const int left = passes - std::max(pass, options_.warmup);
  if (left > 0) stats.add_repeated(t, static_cast<std::size_t>(left));
  return stats;
}

std::vector<double> MeasurementHarness::all_isolated_means() const {
  std::vector<double> means;
  means.reserve(app_->loop_size());
  for (std::size_t k = 0; k < app_->loop_size(); ++k) {
    means.push_back(isolated_mean(k));
  }
  return means;
}

double MeasurementHarness::prologue_mean(std::size_t index) const {
  return prologue_stats(index).mean();
}

trace::RunningStats MeasurementHarness::prologue_stats(
    std::size_t index) const {
  assert(index < app_->prologue.size());
  // Prologue kernels run once per application start; measure them in that
  // position (after reset) and average over repeated application starts.
  // A pass (reset, then the prologue up to `index`) that leaves the state
  // unchanged repeats from then on, like a loop traversal.
  (void)state_repeats();
  trace::RunningStats stats;
  double t = 0.0;
  bool fixed = false;
  int r = 0;
  for (; r < options_.repetitions && !fixed; ++r) {
    app_->reset();
    for (std::size_t i = 0; i <= index; ++i) {
      const double dt = app_->prologue[i]->invoke();
      if (i == index) t = dt;
    }
    fixed = state_repeats();
    stats.add(t);
  }
  const int left = options_.repetitions - r;
  if (left > 0) stats.add_repeated(t, static_cast<std::size_t>(left));
  return stats;
}

double MeasurementHarness::epilogue_mean(std::size_t index) const {
  return epilogue_stats(index).mean();
}

trace::RunningStats MeasurementHarness::epilogue_stats(
    std::size_t index) const {
  assert(index < app_->epilogue.size());
  // Epilogue kernels see end-of-run state; one application run per sample is
  // expensive, so they get their own (smaller) repetition budget.
  trace::RunningStats stats;
  for (int r = 0; r < options_.epilogue_repetitions; ++r) {
    app_->reset();
    for (Kernel* k : app_->prologue) k->invoke();
    // Once an iteration leaves the state unchanged, the epilogue starts
    // from that state however many iterations remain.
    (void)state_repeats();
    bool fixed = false;
    for (int it = 0; it < app_->iterations && !fixed; ++it) {
      for (Kernel* k : app_->loop) k->invoke();
      fixed = state_repeats();
    }
    double t = 0.0;
    for (std::size_t i = 0; i <= index; ++i) {
      const double dt = app_->epilogue[i]->invoke();
      if (i == index) t = dt;
    }
    stats.add(t);
    // The hook answers true only for an application that cold-starts its
    // own machine and runs only its own kernels, so a run from reset is a
    // pure function of the cold state: every later repetition repeats this
    // sample.
    if (fixed) {
      stats.add_repeated(
          t, static_cast<std::size_t>(options_.epilogue_repetitions - r - 1));
      break;
    }
  }
  return stats;
}

double MeasurementHarness::actual_total() const {
  app_->reset();
  double total = 0.0;
  for (Kernel* k : app_->prologue) total += k->invoke();
  // Once an iteration leaves the state unchanged, the remaining iterations
  // add its recorded per-kernel costs in the same order, so the sum is the
  // one full pricing produces.
  (void)state_repeats();
  std::vector<double> costs(app_->loop_size());
  bool fixed = false;
  for (int it = 0; it < app_->iterations; ++it) {
    for (std::size_t i = 0; i < costs.size(); ++i) {
      if (!fixed) costs[i] = app_->loop[i]->invoke();
      total += costs[i];
    }
    fixed = fixed || state_repeats();
  }
  for (Kernel* k : app_->epilogue) total += k->invoke();
  return total;
}

bool MeasurementHarness::state_repeats() const {
  return app_->state_repeats && app_->state_repeats(*app_);
}

}  // namespace kcoup::coupling

#include "coupling/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace kcoup::coupling {

bool ChainCoupling::contains(std::size_t kernel_index) const {
  return std::find(members.begin(), members.end(), kernel_index) !=
         members.end();
}

std::vector<ChainCoupling> measure_chains(
    const MeasurementHarness& harness, std::size_t length,
    std::span<const double> isolated_means) {
  const LoopApplication& app = harness.app();
  const std::size_t n = app.loop_size();
  if (isolated_means.size() != n) {
    throw std::invalid_argument(
        "measure_chains: isolated_means size must equal loop size");
  }
  if (length == 0 || length > n) {
    throw std::invalid_argument("measure_chains: length must be in [1, N]");
  }

  std::vector<ChainCoupling> chains;
  chains.reserve(n);
  for (std::size_t start = 0; start < n; ++start) {
    ChainCoupling c;
    c.start = start;
    c.length = length;
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t k = (start + i) % n;
      c.members.push_back(k);
      c.isolated_sum += isolated_means[k];
      if (!c.label.empty()) c.label += ", ";
      c.label += app.loop[k]->name();
    }
    c.chain_time = harness.chain_mean(start, length);
    chains.push_back(std::move(c));
  }
  return chains;
}

namespace {

bool holds_member(const ChainCoupling& c, std::size_t k) {
  return c.contains(k);
}

}  // namespace

std::vector<double> coupling_coefficients(
    std::size_t kernel_count, std::span<const ChainCoupling> chains) {
  std::vector<double> alpha(kernel_count);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    alpha[k] = coupling_coefficient(chains, k, holds_member);
  }
  return alpha;
}

std::vector<double> coupling_coefficients_unweighted(
    std::size_t kernel_count, std::span<const ChainCoupling> chains) {
  std::vector<double> alpha(kernel_count, 1.0);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const ChainCoupling& c : chains) {
      if (!c.contains(k)) continue;
      sum += c.coupling();
      ++count;
    }
    if (count > 0) alpha[k] = sum / static_cast<double>(count);
  }
  return alpha;
}

double summation_prediction(const PredictionInputs& in) {
  double loop = 0.0;
  for (double t : in.isolated_means) loop += t;
  return in.prologue_s + static_cast<double>(in.iterations) * loop +
         in.epilogue_s;
}

double coupling_prediction(const PredictionInputs& in,
                           std::span<const ChainCoupling> chains) {
  return compose_prediction(in, [chains](std::size_t k) {
    return coupling_coefficient(chains, k, holds_member);
  });
}

double alpha_prediction(const PredictionInputs& in,
                        std::span<const double> alpha) {
  if (alpha.size() != in.isolated_means.size()) {
    throw std::invalid_argument(
        "alpha_prediction: one coefficient per loop kernel required");
  }
  return compose_prediction(in, [alpha](std::size_t k) { return alpha[k]; });
}

}  // namespace kcoup::coupling

#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "coupling/measurement.hpp"

namespace kcoup::coupling {

/// Coupling measurement of one cyclic chain of adjacent loop kernels,
/// C_S = P_S / sum_{k in S} P_k  (paper eq. 2; eq. 1 is length == 2).
struct ChainCoupling {
  std::size_t start = 0;   ///< loop index of the first kernel in the chain
  std::size_t length = 0;  ///< number of kernels in the chain
  std::vector<std::size_t> members;  ///< loop indices, in chain order
  std::string label;                 ///< "Copy_Faces, X_Solve, ..."
  double chain_time = 0.0;           ///< P_S: one chain traversal, seconds
  double isolated_sum = 0.0;         ///< sum of the members' isolated P_k

  /// The coupling value C_S.  < 1 constructive, > 1 destructive, == 1 none.
  /// A chain whose members have no isolated time has no defined coupling;
  /// report NaN instead of dividing by zero (mirrors
  /// CouplingRecord::coupling()).
  [[nodiscard]] double coupling() const {
    if (isolated_sum == 0.0) return std::numeric_limits<double>::quiet_NaN();
    return chain_time / isolated_sum;
  }

  [[nodiscard]] bool contains(std::size_t kernel_index) const;
};

/// Measure the N cyclic chains of `length` adjacent kernels of the
/// application's main loop (one chain starting at each loop position).
/// `isolated_means` must be the harness's all_isolated_means().
[[nodiscard]] std::vector<ChainCoupling> measure_chains(
    const MeasurementHarness& harness, std::size_t length,
    std::span<const double> isolated_means);

/// The paper's composition algebra (§3): the coefficient of kernel k is the
/// average of the coupling values of every measured chain containing k,
/// weighted by each chain's measured time:
///
///   alpha_k = sum_{S : k in S} C_S * P_S  /  sum_{S : k in S} P_S
///
/// For length-2 chains over four kernels this reduces exactly to the
/// paper's explicit alpha..delta expressions (verified by unit test).
[[nodiscard]] std::vector<double> coupling_coefficients(
    std::size_t kernel_count, std::span<const ChainCoupling> chains);

/// Whether the cyclic chain of `length` adjacent kernels starting at loop
/// position `start` < loop_size contains kernel k: the membership
/// measure_chains() stores in ChainCoupling::members, computed instead.
[[nodiscard]] constexpr bool in_cyclic_chain(std::size_t k, std::size_t start,
                                             std::size_t length,
                                             std::size_t loop_size) {
  return k < loop_size &&
         (k >= start ? k - start : k + loop_size - start) < length;
}

/// alpha_k of coupling_coefficients() for one kernel k: the chain-time
/// weighted average of C_S over the chains for which holds(chain, k) is
/// true, taken in range order; 1 when their weight is not positive.  A
/// chain is anything with chain_time and coupling(): a ChainCoupling, or a
/// stored CouplingRecord.  This is the formula's one implementation —
/// coupling_coefficients(), coupling_prediction() and the donor form of
/// reuse_prediction() all evaluate it, so their sums run in one order and
/// agree bit for bit.
template <class Chains, class Holds>
[[nodiscard]] double coupling_coefficient(const Chains& chains, std::size_t k,
                                          const Holds& holds) {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& c : chains) {
    if (!holds(c, k)) continue;
    weighted += c.coupling() * c.chain_time;
    weight += c.chain_time;
  }
  return weight > 0.0 ? weighted / weight : 1.0;
}

/// Ablation variant: plain (unweighted) average of the coupling values of
/// the chains containing each kernel.  The paper motivates the time
/// weighting with "a large coupling value for a pair of kernels that
/// attribute very little to the execution time" (§3); this variant lets the
/// ablation bench quantify how much the weighting matters.
[[nodiscard]] std::vector<double> coupling_coefficients_unweighted(
    std::size_t kernel_count, std::span<const ChainCoupling> chains);

/// Inputs shared by the predictors.  `isolated_means` are the per-invocation
/// kernel models E_k / iterations; following the paper's case studies, the
/// per-kernel "analytical model" is the measured isolated mean scaled by the
/// kernel's invocation count.
struct PredictionInputs {
  std::vector<double> isolated_means;  ///< per loop kernel, seconds
  double prologue_s = 0.0;             ///< one-shot kernels before the loop
  double epilogue_s = 0.0;             ///< one-shot kernels after the loop
  int iterations = 1;
};

/// The traditional baseline (§4.1): T = Tinit + I * sum_k T_k + Tfinal.
[[nodiscard]] double summation_prediction(const PredictionInputs& in);

/// The paper's coupling predictor: T = Tinit + I * sum_k alpha_k T_k +
/// Tfinal, with alpha from coupling_coefficients().
[[nodiscard]] double coupling_prediction(const PredictionInputs& in,
                                         std::span<const ChainCoupling> chains);

/// Coupling predictor from precomputed coefficients.  coupling_prediction()
/// is alpha_prediction() over coupling_coefficients() with the same
/// summation order, so evaluating cached coefficients (the prediction
/// service's snapshot stores them) is bit-identical to recomputing them
/// from the chains.  `alpha` must have one entry per loop kernel.
[[nodiscard]] double alpha_prediction(const PredictionInputs& in,
                                      std::span<const double> alpha);

/// T = Tinit + I * sum_k alpha(k) * T_k + Tfinal, summed in loop order, with
/// each coefficient asked for as the sum reaches it: alpha_prediction() and
/// coupling_prediction() both evaluate this, so a caller that computes
/// alpha_k on the fly gets the bits of one that stored the coefficients.
template <class Alpha>
[[nodiscard]] double compose_prediction(const PredictionInputs& in,
                                        const Alpha& alpha) {
  double loop = 0.0;
  for (std::size_t k = 0; k < in.isolated_means.size(); ++k) {
    loop += alpha(k) * in.isolated_means[k];
  }
  return in.prologue_s + static_cast<double>(in.iterations) * loop +
         in.epilogue_s;
}

}  // namespace kcoup::coupling

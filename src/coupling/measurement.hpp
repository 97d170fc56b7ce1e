#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coupling/kernel.hpp"
#include "trace/stats.hpp"

namespace kcoup::coupling {

/// Measurement protocol parameters.  The defaults follow the paper: "The
/// average execution time for each kernel is obtained by running the kernel
/// 50 times" (§4.1), preceded by a few warm-up passes so the loop reflects
/// the steady state ("placing a given kernel or pair of kernels into a loop,
/// such that the loop dominates the application execution time", §2).
struct MeasurementOptions {
  int repetitions = 50;
  int warmup = 3;
  /// Samples per epilogue kernel.  Each sample costs a full application run
  /// (prologue + iterations x main loop), so the default is deliberately
  /// smaller than `repetitions`.
  int epilogue_repetitions = 3;
};

/// Performs the paper's three kinds of measurements on a LoopApplication:
///
///  * P_k   — isolated_mean(): kernel k alone in a loop,
///  * P_S   — chain_mean(): a chain of adjacent kernels in a loop,
///  * T     — actual_total(): the full application, prologue + iterations x
///            main loop + epilogue.
///
/// Every measurement starts from a reset environment and discards warm-up
/// passes, so the reported mean is the steady-state per-invocation (or
/// per-chain-traversal) time.  The surrounding-application subtraction the
/// paper performs is exact here because the harness times only the kernels
/// themselves.
///
/// When the application sets LoopApplication::state_repeats, a measurement
/// stops pricing once a traversal leaves the state as it found it and
/// replays that traversal's costs, in the same order, for the remaining
/// passes: the results are bit-identical to pricing every pass.  Samples
/// after the fixed point are added in O(1) (RunningStats::add_repeated).
/// The hook answers true only for an application whose run from reset is a
/// pure function of its cold state, so an epilogue measurement whose run
/// reached a fixed point prices that run once and repeats its sample for
/// the remaining repetitions.
class MeasurementHarness {
 public:
  MeasurementHarness(const LoopApplication* app, MeasurementOptions options)
      : app_(app), options_(options) {}

  /// Steady-state mean seconds of one invocation of loop kernel `index`.
  [[nodiscard]] double isolated_mean(std::size_t index) const;

  /// Steady-state mean seconds of one traversal of the cyclic chain of
  /// `length` kernels starting at loop position `start` (wraps around).
  [[nodiscard]] double chain_mean(std::size_t start, std::size_t length) const;

  /// Full sample statistics behind chain_mean()/prologue_mean()/
  /// epilogue_mean().  The campaign executor uses the spread to decide
  /// whether a measurement needs to be retried.
  [[nodiscard]] trace::RunningStats chain_stats(std::size_t start,
                                                std::size_t length) const;
  [[nodiscard]] trace::RunningStats prologue_stats(std::size_t index) const;
  [[nodiscard]] trace::RunningStats epilogue_stats(std::size_t index) const;

  /// Isolated means for every loop kernel, in loop order.
  [[nodiscard]] std::vector<double> all_isolated_means() const;

  /// Mean seconds of one execution of a prologue/epilogue kernel, measured
  /// in application position (prologue: after reset; epilogue: after the
  /// full application body has run).
  [[nodiscard]] double prologue_mean(std::size_t index) const;
  [[nodiscard]] double epilogue_mean(std::size_t index) const;

  /// Total seconds of one full application run (the paper's "Actual").
  [[nodiscard]] double actual_total() const;

  [[nodiscard]] const LoopApplication& app() const { return *app_; }
  [[nodiscard]] const MeasurementOptions& options() const { return options_; }

 private:
  /// The application's state_repeats hook; false when it has none.
  [[nodiscard]] bool state_repeats() const;

  const LoopApplication* app_;
  MeasurementOptions options_;
};

}  // namespace kcoup::coupling

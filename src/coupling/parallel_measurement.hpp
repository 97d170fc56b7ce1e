#pragma once

#include <functional>
#include <string>
#include <vector>

#include "coupling/study.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::coupling {

/// One kernel of a rank-parallel application.  The body runs this rank's
/// share of the kernel: it may exchange simmpi messages with the same
/// kernel's bodies on other ranks and must charge its local work to the
/// rank's virtual clock (Comm::advance).
struct ParallelKernel {
  std::string name;
  std::function<void()> body;
};

/// A rank-parallel application described for the measurement protocol.
/// Every rank constructs its own ParallelLoopApp with the same shape
/// (kernel count/order/iterations); bodies differ per rank.
struct ParallelLoopApp {
  std::vector<ParallelKernel> prologue;
  std::vector<ParallelKernel> loop;
  std::vector<ParallelKernel> epilogue;
  int iterations = 1;
  /// Restore rank-local start-of-run state (cold caches, fresh buffers).
  std::function<void()> reset = [] {};
};

/// Result of a rank-parallel coupling study; identical on every rank.
/// Times are global (max over ranks, i.e. simulated parallel execution
/// time), obtained by bracketing measured loops with barriers.
struct ParallelStudyResult {
  double actual_s = 0.0;
  std::vector<double> isolated_means;
  double prologue_s = 0.0;
  double epilogue_s = 0.0;
  double summation_s = 0.0;
  double summation_error = 0.0;
  std::vector<ChainLengthResult> by_length;
};

/// Run the paper's measurement protocol *in parallel*: every measurement
/// (isolated kernel loops, chain loops, the full application) executes on
/// all ranks simultaneously with virtual-time barriers around the timed
/// region, so pipeline fill, message waiting and load imbalance show up in
/// the measured values instead of being modeled analytically.  Must be
/// called collectively from every rank's simmpi body with structurally
/// identical apps; returns the same result on every rank.  Throws
/// std::invalid_argument for a chain length outside [1, N] or one given
/// twice.
[[nodiscard]] ParallelStudyResult run_parallel_study(
    simmpi::Comm& comm, const ParallelLoopApp& app, const StudyOptions& options);

/// Run `per_rank` on `ranks` simmpi ranks and return rank 0's result.
/// `per_rank` builds its rank's state and app and returns
/// run_parallel_study's result, which is the same on every rank.
[[nodiscard]] ParallelStudyResult run_simmpi_study(
    int ranks, const simmpi::NetworkParams& net,
    const std::function<ParallelStudyResult(simmpi::Comm&)>& per_rank);

/// The host-measured form of a numeric rank's app: every kernel body is
/// charged its thread CPU time on `comm`'s virtual clock (simmpi prices the
/// messages), and reset() reruns the prologue untimed to restore the
/// start-of-run state.  Host caches cannot be reset, which is part of what
/// makes measured couplings noisy.
[[nodiscard]] ParallelLoopApp charge_thread_cpu_time(ParallelLoopApp app,
                                                     simmpi::Comm& comm);

}  // namespace kcoup::coupling

// The timed BT study, kept out of bt_model.cpp so that code using only
// the modeled app links no simmpi runtime.

#include "npb/bt/bt_app.hpp"
#include "npb/bt/bt_model.hpp"

namespace kcoup::npb::bt {

coupling::ParallelStudyResult run_bt_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study) {
  check_timed_grid(Benchmark::kBT, n, ranks);
  return coupling::run_simmpi_study(
      ranks, options.network(), [&](simmpi::Comm& comm) {
        TimedAdiRank rank(n, kBtWork, options, comm);
        coupling::ParallelLoopApp app = bt_kernels(rank, iterations);
        app.reset = [&rank] { rank.reset(); };
        return coupling::run_parallel_study(comm, app, study);
      });
}

}  // namespace kcoup::npb::bt

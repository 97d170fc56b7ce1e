// The timed SP study, kept out of sp_model.cpp so that code using only
// the modeled app links no simmpi runtime.

#include "npb/sp/sp_app.hpp"
#include "npb/sp/sp_model.hpp"

namespace kcoup::npb::sp {

coupling::ParallelStudyResult run_sp_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study) {
  check_timed_grid(Benchmark::kSP, n, ranks);
  return coupling::run_simmpi_study(
      ranks, options.network(), [&](simmpi::Comm& comm) {
        TimedAdiRank rank(n, kSpWork, options, comm);
        coupling::ParallelLoopApp app = sp_kernels(rank, iterations);
        app.reset = [&rank] { rank.reset(); };
        return coupling::run_parallel_study(comm, app, study);
      });
}

}  // namespace kcoup::npb::sp

// Extension bench: representative-rank analytic model vs timed parallel
// simulation of BT.
//
// The paper-table benches price one representative rank with an analytic
// synchronisation model.  This bench cross-checks them against the timed
// parallel path, where every rank prices its own subdomain, the sweeps
// really serialise through simmpi messages, and load imbalance emerges from
// per-rank jitter — two independent routes to the same coupling physics.

#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"
#include "report/table.hpp"

using namespace kcoup;

namespace {

void parallel_summary(const char* name,
                      const coupling::ParallelStudyResult& r) {
  std::printf("%s: actual %s s, summation err %s, coupling err %s -> %s\n",
              name, report::format_seconds(r.actual_s).c_str(),
              report::format_percent(r.summation_error).c_str(),
              report::format_percent(r.by_length[0].relative_error).c_str(),
              r.by_length[0].relative_error < r.summation_error
                  ? "coupling wins"
                  : "MISMATCH");
}

}  // namespace

int main() {
  const std::vector<int> procs{4, 9, 16};
  const int n = 32, iterations = 200;  // BT Class W
  const std::size_t q = 3;

  report::Table t("BT Class W: analytic representative-rank model vs timed "
                  "parallel simulation");
  t.set_header({"P", "actual (model)", "actual (parallel)",
                "summ err (model)", "summ err (parallel)",
                "coup err (model)", "coup err (parallel)"});

  for (int p : procs) {
    auto modeled =
        npb::bt::make_modeled_bt_grid(n, iterations, p, machine::ibm_sp_p2sc());
    const coupling::StudyOptions options{{q}, {}};
    const coupling::StudyResult m =
        coupling::run_study(modeled->app(), options);

    npb::TimedOptions topt;
    topt.machine = machine::ibm_sp_p2sc();
    const coupling::ParallelStudyResult par =
        npb::bt::run_bt_parallel_study(n, iterations, p, topt, options);

    t.add_row({std::to_string(p), report::format_seconds(m.actual_s),
               report::format_seconds(par.actual_s),
               report::format_percent(m.summation_error),
               report::format_percent(par.summation_error),
               report::format_percent(m.by_length[0].relative_error),
               report::format_percent(par.by_length[0].relative_error)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expectation: both paths agree on the winner (coupling predictor) and\n"
      "on the rough magnitude of the actual time; the parallel path runs\n"
      "somewhat longer at higher P because pipeline fill and emergent skew\n"
      "replace the analytic synchronisation terms.\n\n");

  std::printf("Timed parallel studies of the other two benchmarks:\n");
  {
    npb::TimedOptions o;
    o.machine = machine::ibm_sp_p2sc();
    parallel_summary("SP n=36 P=9  (q=5)",
                     npb::sp::run_sp_parallel_study(
                         36, 400, 9, o, coupling::StudyOptions{{5}, {}}));
  }
  {
    npb::TimedOptions o;
    o.machine = machine::ibm_sp_p2sc();
    parallel_summary("LU n=33 P=8  (q=3)",
                     npb::lu::run_lu_parallel_study(
                         33, 300, 8, o, coupling::StudyOptions{{3}, {}}));
    parallel_summary("LU n=64 P=32 (q=3)",
                     npb::lu::run_lu_parallel_study(
                         64, 250, 32, o, coupling::StudyOptions{{3}, {}}));
  }
  return 0;
}

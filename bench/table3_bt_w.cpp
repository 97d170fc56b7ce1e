// Regenerates paper Tables 3a and 3b: NPB BT, Class W (32^3, 200 iterations)
// on 4/9/16/25 processors of the modeled IBM SP.  Table 3a reports the
// 3-kernel chain couplings; Table 3b the prediction comparison.
//
// Paper reference values: all 3-chain couplings are strongly constructive
// (~0.73-0.76) and nearly constant across processor counts, because the
// per-process data no longer fits L1 but fits L2 (§4.1.2).  Predictions:
// 3-kernel coupling avg error 1.42 % vs summation 22.42 %.

#include "bench/bench_util.hpp"
#include "bench/npb_study.hpp"
#include "npb/bt/bt_model.hpp"

int main() {
  using namespace kcoup;

  const std::vector<int> procs{4, 9, 16, 25};
  const auto make = [](int p, const machine::MachineConfig& cfg) {
    return npb::bt::make_modeled_bt(npb::ProblemClass::kW, p, cfg);
  };
  const bench::StudyAcrossProcs study = bench::study_across_procs(
      make, procs, {3}, machine::ibm_sp_p2sc());

  bench::print_coupling_table(
      "Table 3a: Coupling values for BT three kernels with Class W", study, 3);
  bench::print_prediction_table(
      "Table 3b: Comparison of execution times for BT with Class W using "
      "three kernels",
      study);
  bench::print_error_summary(
      "Average relative errors (paper: summation 22.42 %, 3-kernel coupling "
      "1.42 %):",
      study);
  return bench::print_shape_check("BT Class W", study) ? 0 : 1;
}

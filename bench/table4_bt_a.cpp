// Regenerates paper Tables 4a and 4b: NPB BT, Class A (64^3, 200 iterations)
// on 4/9/16/25 processors of the modeled IBM SP.  Table 4a reports the
// 4-kernel chain couplings; Table 4b the prediction comparison.
//
// Paper reference values: at 4 processors the per-process data is beyond the
// caches and coupling is barely constructive (~0.9-0.99); from 9 processors
// on the per-process data shrinks into L2 and couplings settle around
// 0.78-0.85 with little further change (§4.1.3).  Predictions: 4-kernel
// coupling avg error 0.79 % vs summation 21.80 %.

#include "bench/bench_util.hpp"
#include "bench/npb_study.hpp"
#include "npb/bt/bt_model.hpp"

int main() {
  using namespace kcoup;

  const std::vector<int> procs{4, 9, 16, 25};
  const auto make = [](int p, const machine::MachineConfig& cfg) {
    return npb::bt::make_modeled_bt(npb::ProblemClass::kA, p, cfg);
  };
  const bench::StudyAcrossProcs study = bench::study_across_procs(
      make, procs, {4}, machine::ibm_sp_p2sc());

  bench::print_coupling_table(
      "Table 4a: Coupling values for BT four kernels with Class A", study, 4);
  bench::print_prediction_table(
      "Table 4b: Comparison of execution times for BT with Class A", study);
  bench::print_error_summary(
      "Average relative errors (paper: summation 21.80 %, 4-kernel coupling "
      "0.79 %):",
      study);
  return bench::print_shape_check("BT Class A", study) ? 0 : 1;
}

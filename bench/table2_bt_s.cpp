// Regenerates paper Tables 2a and 2b: NPB BT, Class S (12^3, 60 iterations)
// on 4/9/16 processors of the modeled IBM SP.  Table 2a reports the pairwise
// (2-kernel) coupling values of the five main-loop kernels; Table 2b compares
// the actual modeled execution time against the summation predictor and the
// 2-kernel coupling predictor.
//
// Paper reference values: pairwise couplings mostly grow with the processor
// count (0.96 -> 1.4 range; communication volume and load imbalance dominate
// at this size, §4.1.1); neither predictor is very accurate at Class S
// (summation avg error 30.72 %, 2-kernel coupling avg error 28.39 %) because
// the absolute times are tiny.

#include "bench/bench_util.hpp"
#include "bench/npb_study.hpp"
#include "npb/bt/bt_model.hpp"

int main() {
  using namespace kcoup;

  const std::vector<int> procs{4, 9, 16};
  const auto make = [](int p, const machine::MachineConfig& cfg) {
    return npb::bt::make_modeled_bt(npb::ProblemClass::kS, p, cfg);
  };
  const bench::StudyAcrossProcs study = bench::study_across_procs(
      make, procs, {2}, machine::ibm_sp_p2sc());

  bench::print_coupling_table(
      "Table 2a: Coupling values for BT two kernels with Class S", study, 2);
  bench::print_prediction_table(
      "Table 2b: Comparison of execution times for BT with Class S", study);
  bench::print_error_summary("Average relative errors (paper: summation "
                             "30.72 %, 2-kernel coupling 28.39 %):",
                             study);
  return bench::print_shape_check("BT Class S", study) ? 0 : 1;
}

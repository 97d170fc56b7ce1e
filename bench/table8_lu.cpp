// Regenerates paper Tables 8a/8b/8c: NPB LU, Classes W (33^3), A (64^3) and
// B (102^3) on 4/8/16/32 processors of the modeled IBM SP, comparing the
// actual modeled time against the summation predictor and the 3-kernel
// coupling predictor.
//
// Paper reference averages: Class W summation 12.88 % vs coupling 3.60 %;
// Class A 4.56 % vs 1.47 %; Class B worst coupling 1.44 % vs best summation
// 2.28 %.  LU's summation errors are smaller than BT/SP's because the
// diagonal-pipelined sweeps are latency-bound.

#include "bench/bench_util.hpp"
#include "bench/npb_study.hpp"
#include "npb/lu/lu_model.hpp"

int main() {
  using namespace kcoup;

  const std::vector<int> procs{4, 8, 16, 32};
  const struct {
    npb::ProblemClass cls;
    const char* table;
    const char* paper;
  } cases[] = {
      {npb::ProblemClass::kW,
       "Table 8a: Comparison of execution times for LU with Class W",
       "paper: summation 12.88 %, 3-kernel coupling 3.60 %"},
      {npb::ProblemClass::kA,
       "Table 8b: Comparison of execution times for LU with Class A",
       "paper: summation 4.56 %, 3-kernel coupling 1.47 %"},
      {npb::ProblemClass::kB,
       "Table 8c: Comparison of execution times for LU with Class B",
       "paper: worst coupling 1.44 %, best summation 2.28 %"},
  };

  bool shape_holds = true;
  for (const auto& c : cases) {
    const auto make = [&](int p, const machine::MachineConfig& cfg) {
      return npb::lu::make_modeled_lu(c.cls, p, cfg);
    };
    const bench::StudyAcrossProcs study = bench::study_across_procs(
        make, procs, {3}, machine::ibm_sp_p2sc());
    if (c.cls == npb::ProblemClass::kA) {
      bench::print_coupling_table(
          "Supplementary (not tabulated in the paper): LU Class A 3-kernel "
          "coupling values",
          study, 3);
    }
    bench::print_prediction_table(c.table, study);
    bench::print_error_summary(std::string("Average relative errors (") +
                                   c.paper + "):",
                               study);
    shape_holds &= bench::print_shape_check(
        std::string("LU Class ") + npb::to_string(c.cls), study);
  }
  return shape_holds ? 0 : 1;
}

// Regenerates paper Tables 6a/6b/6c: NPB SP, Classes W (36^3), A (64^3) and
// B (102^3) on 4/9/16/25 processors of the modeled IBM SP, comparing the
// actual modeled time against the summation predictor and the 4- and
// 5-kernel coupling predictors.
//
// Paper reference averages: Class W summation 15.95 % vs coupling 1.63 %
// (4 kernels) / 0.70 % (5 kernels); Class A 20.54 % vs 1.97 % / 1.18 %;
// Class B worst coupling error 1.85 % vs best summation error 18.61 %.

#include "bench/bench_util.hpp"
#include "bench/npb_study.hpp"
#include "npb/sp/sp_model.hpp"

int main() {
  using namespace kcoup;

  const std::vector<int> procs{4, 9, 16, 25};
  const struct {
    npb::ProblemClass cls;
    const char* table;
    const char* paper;
  } cases[] = {
      {npb::ProblemClass::kW, "Table 6a: Comparison of execution times for "
                              "SP with Class W",
       "paper: summation 15.95 %, coupling 1.63 % (q=4), 0.70 % (q=5)"},
      {npb::ProblemClass::kA, "Table 6b: Comparison of execution times for "
                              "SP with Class A",
       "paper: summation 20.54 %, coupling 1.97 % (q=4), 1.18 % (q=5)"},
      {npb::ProblemClass::kB, "Table 6c: Comparison of execution times for "
                              "SP with Class B",
       "paper: worst coupling 1.85 % vs best summation 18.61 %"},
  };

  bool shape_holds = true;
  for (const auto& c : cases) {
    const auto make = [&](int p, const machine::MachineConfig& cfg) {
      return npb::sp::make_modeled_sp(c.cls, p, cfg);
    };
    const bench::StudyAcrossProcs study = bench::study_across_procs(
        make, procs, {4, 5}, machine::ibm_sp_p2sc());
    if (c.cls == npb::ProblemClass::kA) {
      bench::print_coupling_table(
          "Supplementary (not tabulated in the paper, which reports only "
          "prediction\ntables for SP \u00a74.2): SP Class A 4-kernel "
          "coupling values",
          study, 4);
    }
    bench::print_prediction_table(c.table, study);
    bench::print_error_summary(std::string("Average relative errors (") +
                                   c.paper + "):",
                               study);
    shape_holds &= bench::print_shape_check(
        std::string("SP Class ") + npb::to_string(c.cls), study);
  }
  return shape_holds ? 0 : 1;
}

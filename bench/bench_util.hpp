#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coupling/study.hpp"

namespace kcoup::bench {

/// One application studied at several processor counts — the unit of every
/// evaluation table in the paper.
struct StudyAcrossProcs {
  std::vector<int> procs;
  std::vector<coupling::StudyResult> results;  // one per entry of procs
  std::vector<std::string> kernel_names;       // loop kernels, in order
};

/// Print a paper-style "Coupling values" table (e.g. Tables 2a/3a/4a): one
/// row per cyclic chain of length `q`, one column per processor count.
void print_coupling_table(const std::string& title,
                          const StudyAcrossProcs& study, std::size_t q);

/// Print a paper-style "Comparison of execution times" table (e.g. Tables
/// 2b/3b/4b/6/8): rows Actual / Summation / Coupling-per-chain-length,
/// columns per processor count, predictions annotated with relative error.
void print_prediction_table(const std::string& title,
                            const StudyAcrossProcs& study);

/// Print average relative errors per predictor (the numbers the paper's
/// prose quotes, e.g. "average relative error of 1.42%").
void print_error_summary(const std::string& title,
                         const StudyAcrossProcs& study);

/// Emit a PAPER-vs-MEASURED shape check line: does the best coupling
/// predictor beat summation on average?  Returns that verdict, so a table
/// bench can exit non-zero when the paper's shape does not hold.
[[nodiscard]] bool print_shape_check(const std::string& what,
                                     const StudyAcrossProcs& study);

/// Average over processor counts of the summation predictor's relative error.
[[nodiscard]] double mean_summation_error(const StudyAcrossProcs& study);

/// Average relative error of the coupling predictor with chain length `q`.
[[nodiscard]] double mean_coupling_error(const StudyAcrossProcs& study,
                                         std::size_t q);

}  // namespace kcoup::bench

#include "bench/bench_util.hpp"

#include <cstdio>
#include <iostream>

#include "report/table.hpp"

namespace kcoup::bench {
namespace {

const coupling::ChainLengthResult* find_length(
    const coupling::StudyResult& r, std::size_t q) {
  for (const auto& cl : r.by_length) {
    if (cl.length == q) return &cl;
  }
  return nullptr;
}

}  // namespace

void print_coupling_table(const std::string& title,
                          const StudyAcrossProcs& study, std::size_t q) {
  report::Table t(title);
  std::vector<std::string> header{"Kernel chain"};
  for (int p : study.procs) header.push_back(std::to_string(p) + " procs");
  t.set_header(std::move(header));

  if (study.results.empty()) return;
  const auto* first = find_length(study.results.front(), q);
  if (first == nullptr) return;
  for (std::size_t c = 0; c < first->chains.size(); ++c) {
    std::vector<std::string> row{first->chains[c].label};
    for (const auto& r : study.results) {
      const auto* cl = find_length(r, q);
      row.push_back(report::format_coupling(cl->chains[c].coupling()));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.to_string() << '\n';
}

void print_prediction_table(const std::string& title,
                            const StudyAcrossProcs& study) {
  report::Table t(title);
  std::vector<std::string> header{"Predictor"};
  for (int p : study.procs) header.push_back(std::to_string(p) + " procs");
  t.set_header(std::move(header));

  std::vector<std::string> actual{"Actual"};
  std::vector<std::string> summation{"Summation"};
  for (const auto& r : study.results) {
    actual.push_back(report::format_seconds(r.actual_s));
    summation.push_back(
        report::format_prediction(r.summation_s, r.summation_error));
  }
  t.add_row(std::move(actual));
  t.add_row(std::move(summation));

  if (!study.results.empty()) {
    for (const auto& cl0 : study.results.front().by_length) {
      std::vector<std::string> row{"Coupling: " + std::to_string(cl0.length) +
                                   " kernels"};
      for (const auto& r : study.results) {
        const auto* cl = find_length(r, cl0.length);
        row.push_back(
            report::format_prediction(cl->prediction_s, cl->relative_error));
      }
      t.add_row(std::move(row));
    }
  }
  std::cout << t.to_string() << '\n';
}

double mean_summation_error(const StudyAcrossProcs& study) {
  double s = 0.0;
  for (const auto& r : study.results) s += r.summation_error;
  return study.results.empty() ? 0.0
                               : s / static_cast<double>(study.results.size());
}

double mean_coupling_error(const StudyAcrossProcs& study, std::size_t q) {
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& r : study.results) {
    if (const auto* cl = find_length(r, q)) {
      s += cl->relative_error;
      ++n;
    }
  }
  return n ? s / static_cast<double>(n) : 0.0;
}

void print_error_summary(const std::string& title,
                         const StudyAcrossProcs& study) {
  std::printf("%s\n", title.c_str());
  std::printf("  summation predictor: average relative error %s\n",
              report::format_percent(mean_summation_error(study)).c_str());
  if (!study.results.empty()) {
    for (const auto& cl : study.results.front().by_length) {
      std::printf("  coupling (%zu kernels): average relative error %s\n",
                  cl.length,
                  report::format_percent(
                      mean_coupling_error(study, cl.length)).c_str());
    }
  }
  std::printf("\n");
}

bool print_shape_check(const std::string& what,
                       const StudyAcrossProcs& study) {
  const double sum_err = mean_summation_error(study);
  double best_coupling = sum_err;
  std::size_t best_q = 0;
  if (!study.results.empty()) {
    for (const auto& cl : study.results.front().by_length) {
      const double e = mean_coupling_error(study, cl.length);
      if (best_q == 0 || e < best_coupling) {
        best_coupling = e;
        best_q = cl.length;
      }
    }
  }
  std::printf(
      "SHAPE CHECK [%s]: coupling(best q=%zu) avg err %s vs summation %s -> "
      "%s\n\n",
      what.c_str(), best_q,
      report::format_percent(best_coupling).c_str(),
      report::format_percent(sum_err).c_str(),
      best_coupling < sum_err ? "coupling predictor wins (as in paper)"
                              : "MISMATCH: summation wins");
  return best_coupling < sum_err;
}

}  // namespace kcoup::bench

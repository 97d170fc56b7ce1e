// Extension bench: the src/model/ piecewise fit vs a one-segment selection
// from the same family.
//
// Ground truth is a synthetic two-regime workload — volume-bound n^3/P
// scaling up to P = 8, latency-dominated constant + log2(P) from P = 16 on
// — the shape the paper attributes to crossing a memory-hierarchy
// boundary.  Both fits see the same training grid with the largest
// processor count held out, then extrapolate to it:
//
//   - one segment: fit_piecewise with max_segments = 1 (LOO-CV term
//     selection over the whole P range)
//   - piecewise: fit_piecewise (LOO-CV term selection + changepoint split)
//
// The bench reports held-out relative error for both, fit throughput, and
// changepoint-detection throughput, and writes the `BENCH_model.json`
// baseline.  The full run asserts that the piecewise error is below 0.01
// while the one-segment error is at least ten times that, that every
// located breakpoint is within one grid step of the truth, and that every
// transition is found; `--smoke` only checks the pipeline end to end.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "model/piecewise.hpp"
#include "model/select.hpp"
#include "model/transitions.hpp"
#include "report/table.hpp"

using namespace kcoup;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Two-regime truth for kernel k: n^3/P work below the break, constant +
/// log2(P) latency above it.  The break sits between P = 8 and P = 16.
double truth(std::size_t k, double n, double p) {
  const double a = 1e-6 * static_cast<double>(k + 1);
  if (p <= 8.0) return a * n * n * n / p;
  const double c = 2e-3 * static_cast<double>(k + 1);
  return c + 1e-4 * std::log2(p);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t kernels = smoke ? 2 : 8;
  const int fit_reps = smoke ? 2 : 50;

  const std::vector<double> train_p{1, 2, 4, 8, 16, 32, 64};
  const double heldout_p = 128.0;  // largest P: extrapolation target
  const std::vector<double> sizes{12, 24, 36, 64};

  // --- Held-out extrapolation: one segment vs piecewise --------------------
  model::PiecewiseOptions one_segment_options;
  one_segment_options.max_segments = 1;
  // Mean |relative error| at the held-out P, over kernels and sizes.
  double one_segment_mean = 0.0;
  double piecewise_mean = 0.0;
  std::vector<model::PiecewiseModel> fitted(kernels);
  for (std::size_t k = 0; k < kernels; ++k) {
    std::vector<model::ModelSample> samples;
    for (double n : sizes) {
      for (double p : train_p) samples.push_back({n, p, truth(k, n, p)});
    }
    const model::PiecewiseModel one_segment =
        model::fit_piecewise(samples, one_segment_options);
    fitted[k] = model::fit_piecewise(samples);
    for (double n : sizes) {
      const double want = truth(k, n, heldout_p);
      one_segment_mean +=
          std::fabs(one_segment.evaluate(n, heldout_p) - want) / want;
      piecewise_mean +=
          std::fabs(fitted[k].evaluate(n, heldout_p) - want) / want;
    }
  }
  const double points = static_cast<double>(kernels * sizes.size());
  one_segment_mean /= points;
  piecewise_mean /= points;

  // Breakpoint recovery: every kernel's split must land between the grid
  // points straddling the true regime change.
  bool breakpoints_ok = true;
  for (const model::PiecewiseModel& pw : fitted) {
    if (pw.breakpoints.size() != 1 || pw.breakpoints[0] <= 8.0 ||
        pw.breakpoints[0] >= 16.0) {
      breakpoints_ok = false;
    }
  }

  // --- Fit throughput ------------------------------------------------------
  std::vector<model::ModelSample> timing_samples;
  for (double n : sizes) {
    for (double p : train_p) timing_samples.push_back({n, p, truth(0, n, p)});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < fit_reps; ++rep) {
    const model::PiecewiseModel pw = model::fit_piecewise(timing_samples);
    if (pw.segments.empty()) return 1;  // keep the optimizer honest
  }
  const double fit_wall = seconds_since(t0);
  const double fit_ms =
      fit_reps > 0 ? 1e3 * fit_wall / static_cast<double>(fit_reps) : 0.0;

  // --- Changepoint-detection throughput ------------------------------------
  coupling::CouplingDatabase db;
  const int series = smoke ? 4 : 64;
  for (int s = 0; s < series; ++s) {
    for (int p : {1, 2, 4, 8, 16, 32, 64}) {
      const double c = p <= 8 ? 1.03 : 1.4;
      db.record({{"APP" + std::to_string(s), "S", p, 2, 0}, c, 1.0});
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto transitions = model::detect_coupling_transitions(db);
  const double detect_wall = seconds_since(t1);
  const bool transitions_ok =
      transitions.size() == static_cast<std::size_t>(series);

  // --- Report ---------------------------------------------------------------
  report::Table t("Model fitting: piecewise vs one segment (" +
                  std::to_string(kernels) + " kernels, held-out P=" +
                  std::to_string(static_cast<int>(heldout_p)) + ")");
  t.set_header({"metric", "value"});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", one_segment_mean);
  t.add_row({"one-segment held-out rel err", buf});
  std::snprintf(buf, sizeof buf, "%.4g", piecewise_mean);
  t.add_row({"piecewise held-out rel err", buf});
  t.add_row({"breakpoints within one grid step",
             breakpoints_ok ? "yes" : "NO"});
  std::snprintf(buf, sizeof buf, "%.3f ms", fit_ms);
  t.add_row({"piecewise fit per kernel", buf});
  std::snprintf(buf, sizeof buf, "%zu in %.3f ms", transitions.size(),
                1e3 * detect_wall);
  t.add_row({"transitions detected", buf});
  std::printf("%s\n", t.to_string().c_str());

  bool ok = breakpoints_ok && transitions_ok;
  // The two-regime truth is exactly representable per segment, so the
  // piecewise model's held-out error is ~0, while one segment has to
  // compromise between regimes.  The one-segment floor is ten times the
  // piecewise ceiling, deliberately far below the observed gap.
  if (!smoke) ok = ok && piecewise_mean < 0.01 && one_segment_mean >= 0.1;

  if (!smoke) {
    std::ofstream out("BENCH_model.json");
    out << "{\"bench\":\"model_fit\"";
    out << ",\"kernels\":" << kernels;
    out << ",\"heldout_p\":" << static_cast<int>(heldout_p);
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", one_segment_mean);
    out << ",\"one_segment_heldout_rel_err\":" << num;
    std::snprintf(num, sizeof num, "%.6g", piecewise_mean);
    out << ",\"piecewise_heldout_rel_err\":" << num;
    out << ",\"breakpoints_ok\":" << (breakpoints_ok ? "true" : "false");
    std::snprintf(num, sizeof num, "%.3f", fit_ms);
    out << ",\"piecewise_fit_ms\":" << num;
    out << ",\"transition_series\":" << series;
    out << ",\"transitions_found\":" << transitions.size();
    std::snprintf(num, sizeof num, "%.3f", 1e3 * detect_wall);
    out << ",\"detect_ms\":" << num;
    out << "}\n";
    std::printf("wrote BENCH_model.json\n");
  }

  if (!ok) {
    std::fprintf(stderr, "ext_model_fit: assertions failed\n");
    return 1;
  }
  return 0;
}

// Extension bench: predicting configurations that were never run, by
// combining fitted per-kernel scaling models with reused coupling values —
// the full workflow the paper's section 3 sketches ("modelA"/"modelB"
// composed via the coupling coefficients) plus its section 6 future work.
//
// Protocol for BT:
//   1. Measure isolated kernel means on a training set of configurations
//      (classes S/W at P in {4, 9}) on the modeled machine.
//   2. Select E_k(n, P) per kernel from the term registry of src/model/
//      (fit_piecewise, default options).
//   3. Measure coupling chains ONCE (class W at P = 9) into the database.
//   4. Predict class W at P in {4, 9, 16, 25} from the models alone — at
//      16 and 25 configurations never measured — as
//      T = I * sum_k alpha_k E_k(n, P), and compare against the modeled
//      "actual" and against the model-only summation (alpha = 1).

#include <cstdio>
#include <vector>

#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "model/piecewise.hpp"
#include "npb/bt/bt_model.hpp"
#include "report/table.hpp"
#include "trace/stats.hpp"

using namespace kcoup;

namespace {

struct TrainingPoint {
  int n;
  int iterations;
  int procs;
};

}  // namespace

int main() {
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  const std::size_t q = 3;
  const int n_w = 32, iters_w = 200;  // BT Class W

  // --- 1. Training measurements: isolated means only.  The points stay in
  // the Class-W cache regime (two P values leave no room for a breakpoint;
  // fitting across a cache-capacity transition is exactly what the
  // coupling transitions of section 4.1.4 warn against).
  const std::vector<TrainingPoint> training{
      {20, 100, 4}, {20, 100, 9}, {24, 100, 4}, {24, 100, 9},
      {28, 150, 4}, {28, 150, 9}, {32, 200, 4}, {32, 200, 9},
      {40, 200, 4}, {40, 200, 9},
  };
  std::vector<std::vector<model::ModelSample>> samples(5);
  coupling::CouplingDatabase db;
  for (const TrainingPoint& t : training) {
    auto modeled = npb::bt::make_modeled_bt_grid(t.n, t.iterations, t.procs, cfg);
    coupling::MeasurementHarness harness(&modeled->app(), {});
    const auto means = harness.all_isolated_means();
    for (std::size_t k = 0; k < means.size(); ++k) {
      samples[k].push_back({static_cast<double>(t.n),
                            static_cast<double>(t.procs), means[k]});
    }
    // --- 3. One chain-measured donor configuration. ----------------------
    if (t.n == n_w && t.procs == 9) {
      db.record("BT", "W", t.procs,
                coupling::measure_chains(harness, q, means));
    }
  }

  // --- 2. Select per-kernel scaling models. --------------------------------
  std::vector<model::PiecewiseModel> models;
  std::printf("Selected per-kernel models (BT, fit_piecewise):\n");
  const char* names[] = {"Copy_Faces", "X_Solve", "Y_Solve", "Z_Solve", "Add"};
  for (std::size_t k = 0; k < samples.size(); ++k) {
    models.push_back(model::fit_piecewise(samples[k]));
    std::printf("  %-10s  LOO-CV err %5.2f %%   E(n,P) = %s\n", names[k],
                100.0 * models[k].cv_rmse(), models[k].to_string().c_str());
  }
  std::printf("\n");

  // --- 4. Predict unseen configurations. -----------------------------------
  report::Table t("BT Class W predicted from fitted models + reused "
                  "couplings (no measurements at the target)");
  t.set_header({"P", "actual", "models+summation", "models+coupling(P=9)"});
  for (int p : {4, 9, 16, 25}) {
    auto modeled = npb::bt::make_modeled_bt_grid(n_w, iters_w, p, cfg);
    coupling::MeasurementHarness harness(&modeled->app(), {});
    const double actual = harness.actual_total();

    coupling::PredictionInputs in;
    for (const auto& m : models) {
      in.isolated_means.push_back(
          m.evaluate(static_cast<double>(n_w), static_cast<double>(p)));
    }
    in.iterations = iters_w;
    const double summ = coupling::summation_prediction(in);
    const auto donor = db.reuse_chains_for("BT", "W", p, q, 5);
    const double coup = coupling::reuse_prediction(in, donor);

    t.add_row({std::to_string(p), report::format_seconds(actual),
               report::format_prediction(summ,
                                          trace::relative_error(summ, actual)),
               report::format_prediction(
                   coup, trace::relative_error(coup, actual))});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "The models + coupling column uses zero measurements at the target\n"
      "configuration: per-kernel times come from the selected scaling\n"
      "models and the composition coefficients from the P=9 donor\n"
      "couplings.  Inside the training range the composition helps at\n"
      "P = 4 but not at P = 9, the donor's own configuration: there\n"
      "models + summation already falls below the actual time, and the\n"
      "donor's couplings, which lower the sum, pull the total further\n"
      "down.  At P = 16, 25 the per-process working set crosses a\n"
      "cache-capacity boundary, and each kernel's form, selected from\n"
      "P = 4 and 9 alone, extrapolates poorly — the coupling composition\n"
      "still recovers several points of error over summation, but the\n"
      "fitted models themselves are the bottleneck.\n"
      "This is the paper's own caveat from the other direction: both the\n"
      "coupling values AND the kernel models are regime-specific, valid\n"
      "between the finite transitions of section 4.1.4.\n");
  return 0;
}

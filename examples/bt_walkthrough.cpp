// Walkthrough of the paper's BT case study (section 4.1) on the modeled
// IBM SP: build the seven-kernel modeled application for Class W on nine
// processors, inspect one kernel's cost breakdown, measure couplings for
// chains of 2..4 kernels, and compare the predictors.  Also runs the *real*
// numeric BT port on the simmpi runtime at a small grid to show the two
// execution paths side by side.

#include <cstdio>

#include "coupling/modeled_kernel.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_app.hpp"
#include "npb/bt/bt_model.hpp"
#include "report/table.hpp"

using namespace kcoup;

int main() {
  // --- Modeled path: the paper's experiment. -----------------------------
  auto modeled =
      npb::bt::make_modeled_bt(npb::ProblemClass::kW, 9, machine::ibm_sp_p2sc());
  std::printf("Modeled application: %s on %s\n\n", modeled->app().name.c_str(),
              modeled->machine().config().name.c_str());

  // Cost breakdown of one Y_Solve invocation in application context
  // (cold machine, one loop pass first so the cache state is realistic).
  modeled->machine().reset_state();
  for (coupling::Kernel* k : modeled->app().loop) (void)k->invoke();
  report::Table bd("Y_Solve cost breakdown (second loop pass, seconds)");
  bd.set_header({"component", "seconds"});
  for (coupling::Kernel* k : modeled->app().loop) {
    if (k->name() != "Y_Solve") {
      (void)k->invoke();
      continue;
    }
    auto* mk = dynamic_cast<coupling::ModeledKernel*>(k);
    const machine::CostBreakdown c = mk->invoke_detailed();
    bd.add_row({"compute", report::format_seconds(c.compute_s)});
    for (std::size_t l = 0; l < c.cache_s.size(); ++l) {
      std::string level = "L";
      level += std::to_string(l + 1);
      level += " traffic";
      bd.add_row({std::move(level), report::format_seconds(c.cache_s[l])});
    }
    bd.add_row({"memory traffic", report::format_seconds(c.memory_s)});
    bd.add_row({"communication", report::format_seconds(c.comm_s)});
    bd.add_row({"synchronisation", report::format_seconds(c.sync_s)});
    bd.add_row({"total", report::format_seconds(c.total())});
  }
  std::printf("%s\n", bd.to_string().c_str());

  // Full study with chains of 2..4.
  coupling::StudyOptions options;
  options.chain_lengths = {2, 3, 4};
  const coupling::StudyResult r = coupling::run_study(modeled->app(), options);

  report::Table alpha("Coupling coefficients per kernel (alpha_k)");
  std::vector<std::string> header{"chain length"};
  for (const auto* k : modeled->app().loop) header.push_back(k->name());
  alpha.set_header(std::move(header));
  for (const auto& cl : r.by_length) {
    std::vector<std::string> row{"q=" + std::to_string(cl.length)};
    for (double a : cl.coefficients) row.push_back(report::format_coupling(a));
    alpha.add_row(std::move(row));
  }
  std::printf("%s\n", alpha.to_string().c_str());

  report::Table pred("Predictions (Class W, 9 processors)");
  pred.set_header({"predictor", "seconds", "relative error"});
  pred.add_row({"Actual", report::format_seconds(r.actual_s), "-"});
  pred.add_row({"Summation", report::format_seconds(r.summation_s),
                report::format_percent(r.summation_error)});
  for (const auto& cl : r.by_length) {
    pred.add_row({"Coupling (q=" + std::to_string(cl.length) + ")",
                  report::format_seconds(cl.prediction_s),
                  report::format_percent(cl.relative_error)});
  }
  std::printf("%s\n", pred.to_string().c_str());

  // --- Numeric path: the real solver on the simmpi runtime. ---------------
  npb::bt::BtConfig cfg;
  cfg.n = 12;
  cfg.iterations = 60;
  simmpi::NetworkParams net;
  net.latency_s = 35e-6;
  net.seconds_per_byte = 11e-9;
  net.sync_latency_s = 20e-6;
  const npb::bt::BtRunResult nr = npb::bt::run_bt(cfg, 4, net);
  std::printf("Numeric BT (n=%d, %d iterations, 4 simmpi ranks):\n", cfg.n,
              cfg.iterations);
  std::printf("  residual  %.3e -> %.3e\n", nr.initial_residual,
              nr.final_residual);
  std::printf("  max error vs manufactured solution: %.3e\n", nr.final_error);
  std::printf("  %zu messages, %zu payload bytes, virtual comm makespan %.3f ms\n",
              nr.run.messages, nr.run.payload_bytes,
              nr.run.makespan_s * 1e3);
  return 0;
}

// Host-measured parallel BT: the real numeric solver's kernels timed with
// the per-thread CPU clock across 4 simmpi ranks, run through the same
// measurement protocol as the paper's experiments.  This is the closest
// this repository gets to what the paper's authors physically did on the
// IBM SP — except the "machine" is whatever host you run it on, so expect
// your coupling values to differ from the modeled tables (that is the
// point: coupling is a property of application AND machine).

#include <cstdio>

#include "npb/bt/bt_app.hpp"
#include "report/table.hpp"

using namespace kcoup;

int main() {
  npb::bt::BtConfig cfg;
  cfg.n = 16;  // keep host time modest; raise for a more realistic study
  cfg.iterations = 40;

  simmpi::NetworkParams net;  // virtual network between the rank threads
  net.latency_s = 35e-6;
  net.seconds_per_byte = 11e-9;
  net.sync_latency_s = 20e-6;

  coupling::StudyOptions study;
  study.chain_lengths = {2, 3};
  study.measurement.repetitions = 20;
  study.measurement.warmup = 3;

  std::printf("Measuring numeric BT (n=%d, %d iterations) on 4 ranks with\n"
              "host CPU-time kernels and a virtual SP network...\n\n",
              cfg.n, cfg.iterations);
  const coupling::ParallelStudyResult r =
      npb::bt::run_bt_measured_study(cfg, 4, net, study);

  report::Table means("Isolated kernel means (host CPU time + virtual comm)");
  means.set_header({"kernel", "seconds"});
  const char* names[] = {"Copy_Faces", "X_Solve", "Y_Solve", "Z_Solve", "Add"};
  for (std::size_t k = 0; k < r.isolated_means.size(); ++k) {
    means.add_row({names[k], report::format_seconds(r.isolated_means[k])});
  }
  std::printf("%s\n", means.to_string().c_str());

  for (const auto& cl : r.by_length) {
    report::Table t("Measured couplings, q=" + std::to_string(cl.length));
    t.set_header({"chain", "C_S"});
    for (const auto& c : cl.chains) {
      t.add_row({c.label, report::format_coupling(c.coupling())});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  report::Table pred("Predictions");
  pred.set_header({"predictor", "seconds", "relative error"});
  pred.add_row({"Actual", report::format_seconds(r.actual_s), "-"});
  pred.add_row({"Summation", report::format_seconds(r.summation_s),
                report::format_percent(r.summation_error)});
  for (const auto& cl : r.by_length) {
    pred.add_row({"Coupling q=" + std::to_string(cl.length),
                  report::format_seconds(cl.prediction_s),
                  report::format_percent(cl.relative_error)});
  }
  std::printf("%s\n", pred.to_string().c_str());
  std::printf("Numbers vary run to run (host noise) — compare the relative\n"
              "errors, not the absolute seconds.\n");
  return 0;
}

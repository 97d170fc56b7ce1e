// The paper's studies on the modeled machine: `study` (Tables 2-8),
// `transitions` (§4.1.4), `reuse` (§6), `parallel`, and `machines`.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "commands.hpp"
#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"
#include "report/table.hpp"
#include "serve/workload.hpp"
#include "trace/stats.hpp"

namespace kcoup::cli {

namespace {

void write_csv(const std::string& path, const report::Table& table) {
  support::write_file_atomic(path, table.to_csv());
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int cmd_study(const Flags& flags) {
  const std::string app_name = flags.text("app");
  const npb::ProblemClass cls = flags.problem_class();
  const std::vector<int> procs = flags.ints("procs", std::vector{4, 9, 16}, 1);
  const std::vector<std::size_t> chains =
      flags.ints<std::size_t>("chains", std::vector<std::size_t>{2}, 0);
  const machine::MachineConfig cfg = flags.machine();
  const auto csv = flags.maybe("csv");
  flags.check_all_used();
  const npb::Benchmark bench = benchmark_named(app_name);
  refuse_repeats(procs, "rank count");

  coupling::StudyOptions options;
  options.chain_lengths = chains;

  std::vector<coupling::StudyResult> results;
  for (int p : procs) {
    auto modeled = serve::make_modeled_app(bench, cls, p, cfg);
    results.push_back(coupling::run_study(modeled->app(), options));
  }

  for (std::size_t q : chains) {
    report::Table t("Coupling values (" + app_name + " class " +
                    npb::to_string(cls) + ", chains of " + std::to_string(q) +
                    ")");
    std::vector<std::string> header{"chain"};
    for (int p : procs) header.push_back(std::to_string(p) + " procs");
    t.set_header(std::move(header));
    const auto& first = results.front();
    for (const auto& cl : first.by_length) {
      if (cl.length != q) continue;
      for (std::size_t c = 0; c < cl.chains.size(); ++c) {
        std::vector<std::string> row{cl.chains[c].label};
        for (const auto& r : results) {
          for (const auto& rcl : r.by_length) {
            if (rcl.length == q) {
              row.push_back(report::format_coupling(rcl.chains[c].coupling()));
            }
          }
        }
        t.add_row(std::move(row));
      }
    }
    std::printf("%s\n", t.to_string().c_str());
    if (csv) write_csv(*csv + "_couplings_q" + std::to_string(q) + ".csv", t);
  }

  report::Table t("Predictions (" + app_name + " class " +
                  npb::to_string(cls) + ")");
  std::vector<std::string> header{"predictor"};
  for (int p : procs) header.push_back(std::to_string(p) + " procs");
  t.set_header(std::move(header));
  std::vector<std::string> actual{"Actual"}, summ{"Summation"};
  for (const auto& r : results) {
    actual.push_back(report::format_seconds(r.actual_s));
    summ.push_back(report::format_prediction(r.summation_s, r.summation_error));
  }
  t.add_row(std::move(actual));
  t.add_row(std::move(summ));
  for (std::size_t q : chains) {
    std::vector<std::string> row{"Coupling q=" + std::to_string(q)};
    for (const auto& r : results) {
      for (const auto& cl : r.by_length) {
        if (cl.length == q) {
          row.push_back(
              report::format_prediction(cl.prediction_s, cl.relative_error));
        }
      }
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.to_string().c_str());
  if (csv) write_csv(*csv + "_predictions.csv", t);
  return 0;
}

int cmd_transitions(const Flags& flags) {
  const std::string app_name = flags.text("app", "bt");
  const int procs = flags.integer("procs", 4, 1);
  const std::vector<int> sizes = flags.ints(
      "sizes", std::vector{8, 12, 16, 24, 32, 48, 64, 96, 128}, 1);
  const machine::MachineConfig cfg = flags.machine();
  const auto csv = flags.maybe("csv");
  flags.check_all_used();
  if (app_name != "bt") {
    throw std::runtime_error("transitions: only --app bt is supported");
  }
  refuse_repeats(sizes, "grid size");

  report::Table t("Mean pairwise coupling vs grid size (P = " +
                  std::to_string(procs) + ")");
  t.set_header({"n", "mean C"});
  for (int n : sizes) {
    auto modeled = npb::bt::make_modeled_bt_grid(n, 50, procs, cfg);
    const coupling::StudyOptions options{{2}, {}};
    const auto r = coupling::run_study(modeled->app(), options);
    double mean = 0.0;
    for (const auto& c : r.by_length[0].chains) mean += c.coupling();
    mean /= static_cast<double>(r.by_length[0].chains.size());
    t.add_row({std::to_string(n), report::format_coupling(mean)});
  }
  std::printf("%s\n", t.to_string().c_str());
  if (csv) write_csv(*csv + "_transitions.csv", t);
  return 0;
}

int cmd_reuse(const Flags& flags) {
  const std::string app_name = flags.text("app", "bt");
  const npb::ProblemClass cls = flags.problem_class();
  const int donor = flags.integer("donor", {}, 1);
  const std::vector<int> targets = flags.ints("targets", {}, 1);
  const std::size_t q = flags.integer<std::size_t>("chains", 3, 1);
  const machine::MachineConfig cfg = flags.machine();
  flags.check_all_used();
  const npb::Benchmark bench = benchmark_named(app_name);
  refuse_repeats(targets, "target rank count");

  coupling::CouplingDatabase db;
  {
    auto modeled = serve::make_modeled_app(bench, cls, donor, cfg);
    const auto r = coupling::run_study(modeled->app(), {{q}, {}});
    db.record(app_name, npb::to_string(cls), donor, r.by_length[0].chains);
  }

  report::Table t("Reuse of donor (P=" + std::to_string(donor) +
                  ") couplings at other processor counts");
  t.set_header({"target P", "actual", "summation", "coupling (reused)"});
  for (int p : targets) {
    // A chain-free study measures what the target needs: its isolated
    // means, one-shot kernels, actual time and summation baseline.
    auto modeled = serve::make_modeled_app(bench, cls, p, cfg);
    const coupling::StudyResult r = coupling::run_study(modeled->app(), {});
    coupling::PredictionInputs in;
    in.isolated_means = r.isolated_means;
    in.prologue_s = r.prologue_s;
    in.epilogue_s = r.epilogue_s;
    in.iterations = modeled->app().iterations;
    const auto reused = db.reuse_chains_for(app_name, npb::to_string(cls), p,
                                            q, modeled->app().loop_size());
    const double coup = coupling::reuse_prediction(in, reused);
    t.add_row({std::to_string(p), report::format_seconds(r.actual_s),
               report::format_prediction(r.summation_s, r.summation_error),
               report::format_prediction(
                   coup, trace::relative_error(coup, r.actual_s))});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

int cmd_parallel(const Flags& flags) {
  const std::string app_name = flags.text("app");
  const int n = flags.integer("n", {}, 1);
  const int iters = flags.integer("iters", 50, 1);
  const int procs = flags.integer("procs", 4, 1);
  const std::vector<std::size_t> chains =
      flags.ints<std::size_t>("chains", std::vector<std::size_t>{2}, 0);
  const machine::MachineConfig cfg = flags.machine();
  flags.check_all_used();

  const coupling::StudyOptions study{chains, {}};
  npb::TimedOptions options;
  options.machine = cfg;
  coupling::ParallelStudyResult r;
  if (app_name == "bt") {
    r = npb::bt::run_bt_parallel_study(n, iters, procs, options, study);
  } else if (app_name == "sp") {
    r = npb::sp::run_sp_parallel_study(n, iters, procs, options, study);
  } else if (app_name == "lu") {
    r = npb::lu::run_lu_parallel_study(n, iters, procs, options, study);
  } else {
    throw std::runtime_error("unknown app '" + app_name + "'");
  }

  report::Table t("Timed parallel study (" + app_name + ", n=" +
                  std::to_string(n) + ", P=" + std::to_string(procs) + ")");
  t.set_header({"predictor", "seconds", "relative error"});
  t.add_row({"Actual", report::format_seconds(r.actual_s), "-"});
  t.add_row({"Summation", report::format_seconds(r.summation_s),
             report::format_percent(r.summation_error)});
  for (const auto& cl : r.by_length) {
    t.add_row({"Coupling q=" + std::to_string(cl.length),
               report::format_seconds(cl.prediction_s),
               report::format_percent(cl.relative_error)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

int cmd_machines(const Flags& flags) {
  flags.check_all_used();
  for (const machine::MachineConfig& c :
       {machine::ibm_sp_p2sc(), machine::generic_smp()}) {
    std::printf("%s\n", c.name.c_str());
    std::printf("  flops/s (effective): %.3g\n", c.flops_per_second);
    for (std::size_t l = 0; l < c.cache.size(); ++l) {
      std::printf("  L%zu: %zu KiB, %.3g ns/B\n", l + 1,
                  c.cache[l].capacity_bytes / 1024,
                  c.cache[l].seconds_per_byte * 1e9);
    }
    std::printf("  memory: %.3g ns/B\n", c.memory_seconds_per_byte * 1e9);
    std::printf("  network: alpha %.3g us, beta %.3g ns/B, contention %.2f\n",
                c.net_latency_s * 1e6, c.net_seconds_per_byte * 1e9,
                c.net_contention_coeff);
    std::printf("  sync: %.3g us/hop, imbalance %.2f\n\n",
                c.sync_latency_s * 1e6, c.imbalance_coeff);
  }
  return 0;
}

}  // namespace kcoup::cli

// recalibrate: one operation is one operator cycle — measure a 24-study
// sweep, persist it, rebuild the CSV snapshot, pack it, reload the packed
// snapshot, and answer a fixed probe set from both snapshots.  Nothing goes
// over the wire.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "machine/config.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = kcoup::serve;

namespace {

constexpr int kSetupReps = 9;
/// Enough cycles for ten samples beyond the reported p90, however short
/// the timed phase (traced phases only need a handful).
constexpr std::uint64_t kMinOps = 100;
constexpr std::uint64_t kMinTracedOps = 10;

struct RecalEnv {
  serve::NpbWorkload workload{kcoup::machine::ibm_sp_p2sc()};
  serve::QueryEngine engine{&workload};
  std::unique_ptr<Publisher> publisher;
  kcoup::campaign::CampaignSpec spec;
  std::vector<serve::QueryKey> probes;
  std::vector<serve::Prediction> reference;
  std::string reference_csv;
  std::size_t tasks_executed = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Per-cycle timings of one phase of cycles.
struct Cycles {
  std::vector<double> op_s;
  std::vector<double> unattributed_s;
  std::vector<PublishTimes> publishes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

std::unique_ptr<RecalEnv> setup(const RunOptions& options, Outcome& outcome) {
  auto env = std::make_unique<RecalEnv>();
  const std::filesystem::path dir(options.work_dir);
  env->publisher = std::make_unique<Publisher>(
      (dir / "recal.csv").string(), (dir / "recal.kcs").string(), &env->engine);
  const std::vector<Cell> sweep = recalibrate_sweep(options.seed);
  env->spec = campaign_spec(sweep);
  env->probes = probe_set(sweep, options.seed);

  // The first cycle warms the engine's cells (the CSV build fits through
  // them) and fixes the references every later cycle must reproduce.
  const PublishTimes first = env->publisher->publish(env->spec, 0);
  outcome.check(first.reloaded, "set-up publish did not reload");
  env->tasks_executed = first.campaign.tasks_executed;
  env->reference_csv = read_file(env->publisher->csv_path());
  serve::QueryEngine reference_engine(&env->workload);
  env->reference = reference_engine.predict_batch(
      *env->publisher->kcs_source().current(), env->probes);
  for (const serve::Prediction& p : env->reference) {
    outcome.check(p.ok, "reference prediction failed: " + p.error);
  }
  (void)env->engine.predict_batch(*env->publisher->csv_source().current(),
                                  env->probes);
  return env;
}

/// Run cycles for `seconds` (and at least min_ops of them).
Cycles run_cycles(RecalEnv& env, double seconds, std::uint64_t min_ops,
                  std::uint64_t first_op, Outcome& outcome) {
  Cycles c;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t op = first_op;
       c.attempted < min_ops || seconds_since(t0) < seconds; ++op) {
    double op_s = 0.0;
    double probe_s = 0.0;
    PublishTimes times;
    std::vector<serve::Prediction> from_csv, from_kcs;
    {
      Timed cycle("recalibrate.cycle", op, &op_s);
      times = env.publisher->publish(env.spec, op);
      Timed probe("recalibrate.probe", op, &probe_s);
      from_csv = env.engine.predict_batch(
          *env.publisher->csv_source().current(), env.probes);
      from_kcs = env.engine.predict_batch(
          *env.publisher->kcs_source().current(), env.probes);
    }
    ++c.attempted;
    bool ok = times.reloaded &&
              times.campaign.tasks_executed == env.tasks_executed &&
              read_file(env.publisher->csv_path()) == env.reference_csv;
    for (std::size_t i = 0; ok && i < env.probes.size(); ++i) {
      ok = same_answer(from_csv[i], env.reference[i]) &&
           same_answer(from_kcs[i], env.reference[i]);
    }
    if (!ok) {
      ++c.failed;
      continue;
    }
    const double unattributed = op_s - times.total_s() - probe_s;
    outcome.check(unattributed >= 0.0, "cycle steps exceed the cycle time");
    c.op_s.push_back(op_s);
    c.unattributed_s.push_back(unattributed);
    c.publishes.push_back(times);
  }
  c.wall_s = seconds_since(t0);
  c.cpu_s = process_cpu_s() - cpu0;
  return c;
}

}  // namespace

Outcome run_recalibrate(const RunOptions& options) {
  Outcome outcome;
  std::vector<double> setup_s;
  std::unique_ptr<RecalEnv> env;
  for (int rep = 0; rep < (options.smoke ? 1 : kSetupReps); ++rep) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = setup(options, outcome);
    setup_s.push_back(seconds_since(t0));
  }

  const std::uint64_t min_ops =
      options.smoke ? 2 : (options.trace ? kMinTracedOps : kMinOps);
  const serve::CacheStats cache0 = env->engine.cache_stats();
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Cycles run = run_cycles(*env, untraced_s, min_ops, 1, outcome);
  const serve::CacheStats cache1 = env->engine.cache_stats();
  outcome.attempted += run.attempted;
  outcome.failed += run.failed;
  const double throughput =
      run.wall_s > 0.0 ? static_cast<double>(run.attempted) / run.wall_s : 0.0;

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.throughput_per_s = throughput;
    e.p50_s = percentile(run.op_s, 0.50);
    e.p90_s = percentile(run.op_s, 0.90);
    e.cpu_s_per_op =
        run.cpu_s / static_cast<double>(std::max<std::uint64_t>(run.attempted, 1));
    add_end_to_end(outcome.metrics, e);
    return outcome;
  }

  auto& tracer = kcoup::obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  const Cycles traced =
      run_cycles(*env, options.seconds / 2, min_ops, 1 + run.attempted, outcome);
  outcome.attempted += traced.attempted;
  outcome.failed += traced.failed;

  LayerMetrics m;
  m.query = probe_query_layers(*env->publisher->kcs_source().current(),
                               env->engine, env->workload, env->probes,
                               options.smoke ? 0.001 : 0.02);
  outcome.check(m.query.failed == 0, "in-process probe predictions failed");
  m.cache_hits = cache1.hits - cache0.hits;
  m.cache_lookups = m.cache_hits + (cache1.misses - cache0.misses);
  if (!traced.publishes.empty()) {
    m.publish = median_of(traced.publishes);
    m.records = m.publish.records;
  }
  m.build = decompose_build(*env->publisher, env->engine, options.smoke ? 1 : 3);
  m.cycle_s = median(traced.op_s);
  m.unattributed_s = median(traced.unattributed_s);
  const double traced_tput =
      traced.wall_s > 0.0
          ? static_cast<double>(traced.attempted) / traced.wall_s
          : 0.0;
  m.trace_overhead_pct =
      throughput > 0.0 ? 100.0 * (throughput - traced_tput) / throughput : 0.0;
  tracer.disable();
  if (!options.trace_out.empty()) {
    outcome.check(tracer.write_chrome_trace_file(options.trace_out),
                  "could not write " + options.trace_out);
  }
  add_layer_metrics(outcome.metrics, m);
  return outcome;
}

}  // namespace perfbench

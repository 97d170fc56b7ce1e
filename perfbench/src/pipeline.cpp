#include "pipeline.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "campaign/executor.hpp"
#include "model/piecewise.hpp"
#include "model/transitions.hpp"
#include "serve/drift.hpp"
#include "serve/pack.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace serve = kcoup::serve;
namespace coupling = kcoup::coupling;

namespace {

/// Where the probe loops store what they computed, so no loop is dead code.
volatile double g_observed = 0.0;

}  // namespace

PublishTimes median_of(const std::vector<PublishTimes>& runs) {
  PublishTimes out = runs.back();
  const auto med = [&runs](auto field) {
    std::vector<double> v;
    for (const PublishTimes& r : runs) v.push_back(field(r));
    return median(std::move(v));
  };
  out.campaign_s = med([](const PublishTimes& r) { return r.campaign_s; });
  out.save_csv_s = med([](const PublishTimes& r) { return r.save_csv_s; });
  out.csv_reload_s = med([](const PublishTimes& r) { return r.csv_reload_s; });
  out.pack_s = med([](const PublishTimes& r) { return r.pack_s; });
  out.kcs_reload_s = med([](const PublishTimes& r) { return r.kcs_reload_s; });
  out.campaign.plan_s = med([](const PublishTimes& r) { return r.campaign.plan_s; });
  out.campaign.measure_s =
      med([](const PublishTimes& r) { return r.campaign.measure_s; });
  out.campaign.assemble_s =
      med([](const PublishTimes& r) { return r.campaign.assemble_s; });
  return out;
}

Publisher::Publisher(std::string csv_path, std::string kcs_path,
                     serve::QueryEngine* engine)
    : csv_path_(std::move(csv_path)),
      kcs_path_(std::move(kcs_path)),
      csv_(csv_path_,
           [engine](const std::string& app, const std::string& config,
                    int ranks) { return engine->cell(app, config, ranks); }),
      kcs_(kcs_path_, serve::CellFn{}) {}

PublishTimes Publisher::publish(
    const kcoup::campaign::CampaignSpec& spec, std::uint64_t op,
    const std::function<void(coupling::CouplingDatabase&)>& extend) {
  PublishTimes t;
  coupling::CouplingDatabase db;
  bool complete = false;
  {
    Timed timed("campaign.run_campaign", op, &t.campaign_s);
    const auto result =
        kcoup::campaign::run_campaign(spec, kCampaignWorkers, &db);
    t.campaign = result.metrics;
    complete = result.complete();
  }
  if (extend) extend(db);
  t.records = db.size();
  {
    Timed timed("coupling.save_csv_file", op, &t.save_csv_s);
    db.save_csv_file(csv_path_);
  }
  bool csv_ok = false;
  {
    Timed timed("snapshot.poll_csv", op, &t.csv_reload_s);
    csv_ok = csv_.poll();
  }
  if (!csv_ok) return t;
  {
    Timed timed("pack.pack_snapshot_file", op, &t.pack_s);
    t.pack_bytes = serve::pack_snapshot_file(*csv_.current(), kcs_path_).bytes;
  }
  bool kcs_ok = false;
  {
    Timed timed("snapshot.poll_kcs", op, &t.kcs_reload_s);
    kcs_ok = kcs_.poll();
  }
  t.reloaded = complete && kcs_ok;
  return t;
}

namespace {

/// The per-kernel samples PredictorSnapshot fits from: every measurable
/// (config, ranks) cell of each application, read through the engine.
std::vector<std::vector<kcoup::model::ModelSample>> fit_samples(
    const coupling::CouplingDatabase& db, serve::QueryEngine& engine) {
  std::map<std::string, std::set<std::pair<std::string, int>>> cells_by_app;
  for (const coupling::CouplingRecord& r : db.records()) {
    cells_by_app[r.key.application].insert({r.key.config, r.key.ranks});
  }
  std::vector<std::vector<kcoup::model::ModelSample>> out;
  for (const auto& [application, cells] : cells_by_app) {
    std::vector<std::vector<kcoup::model::ModelSample>> per_kernel;
    for (const auto& [config, ranks] : cells) {
      const auto cell = engine.cell(application, config, ranks);
      if (!cell.has_value()) continue;
      if (per_kernel.empty()) per_kernel.resize(cell->loop_size);
      if (per_kernel.size() != cell->loop_size) continue;
      for (std::size_t k = 0; k < cell->loop_size; ++k) {
        per_kernel[k].push_back({cell->grid_extent, static_cast<double>(ranks),
                                 cell->inputs.isolated_means[k]});
      }
    }
    for (auto& samples : per_kernel) out.push_back(std::move(samples));
  }
  return out;
}

/// Source counts of `predictions` into `layers`.
void count_sources(const std::vector<serve::Prediction>& predictions,
                   QueryLayers* layers) {
  for (const serve::Prediction& p : predictions) {
    if (!p.ok) {
      ++layers->failed;
    } else if (p.source == "exact") {
      ++layers->exact;
    } else if (p.source == "nearest-donor") {
      ++layers->nearest;
    } else {
      ++layers->model;
    }
  }
}

/// The database without its largest rank count: the "before" side of the
/// drift report, so the report scores real new records.
serve::PredictorSnapshot drift_baseline(const coupling::CouplingDatabase& db) {
  int top = 0;
  for (const auto& r : db.records()) top = std::max(top, r.key.ranks);
  std::vector<coupling::CouplingRecord> kept;
  for (const auto& r : db.records()) {
    if (r.key.ranks != top) kept.push_back(r);
  }
  coupling::CouplingDatabase before;
  before.adopt(std::move(kept));
  return serve::PredictorSnapshot(std::move(before), 1, serve::CellFn{},
                                  serve::SnapshotOptions{false, false});
}

}  // namespace

BuildBreakdown decompose_build(const Publisher& publisher,
                               serve::QueryEngine& engine, int reps) {
  std::vector<double> load, groups, fit, transitions, drift, verify;
  std::vector<std::vector<kcoup::model::ModelSample>> samples;
  for (std::uint64_t rep = 0; rep < static_cast<std::uint64_t>(reps); ++rep) {
    double s = 0.0;
    coupling::CouplingDatabase db;
    {
      Timed timed("coupling.load_csv_file", rep, &s, "rep");
      db.load_csv_file(publisher.csv_path());
    }
    load.push_back(s);

    coupling::CouplingDatabase copy = db;
    std::optional<serve::PredictorSnapshot> alpha_only;
    s = 0.0;
    {
      Timed timed("snapshot.alpha_groups", rep, &s, "rep");
      alpha_only.emplace(std::move(copy), 1, serve::CellFn{},
                         serve::SnapshotOptions{false, false});
    }
    groups.push_back(s);

    if (samples.empty()) samples = fit_samples(db, engine);
    std::vector<kcoup::model::PiecewiseModel> models;
    models.reserve(samples.size());
    s = 0.0;
    {
      Timed timed("model.fit_piecewise", rep, &s, "rep");
      for (const auto& kernel : samples) {
        models.push_back(kcoup::model::fit_piecewise(kernel));
      }
    }
    fit.push_back(s);

    s = 0.0;
    {
      Timed timed("model.detect_coupling_transitions", rep, &s, "rep");
      const auto found = kcoup::model::detect_coupling_transitions(db);
      (void)found;
    }
    transitions.push_back(s);

    const serve::PredictorSnapshot before = drift_baseline(db);
    s = 0.0;
    {
      Timed timed("drift.compute_drift", rep, &s, "rep");
      const auto report = serve::compute_drift(before, db, 2);
      (void)report;
    }
    drift.push_back(s);

    s = 0.0;
    {
      Timed timed("pack.verify_packed_snapshot", rep, &s, "rep");
      (void)serve::verify_packed_snapshot(publisher.kcs_path());
    }
    verify.push_back(s);
  }
  BuildBreakdown b;
  b.load_csv_s = median(load);
  b.alpha_groups_s = median(groups);
  b.fit_piecewise_s = median(fit);
  b.detect_transitions_s = median(transitions);
  b.drift_s = median(drift);
  b.verify_s = median(verify);
  return b;
}

QueryLayers probe_query_layers(const serve::PredictorSnapshot& snapshot,
                               serve::QueryEngine& engine,
                               const serve::Workload& workload,
                               const std::vector<serve::QueryKey>& plan,
                               double target_s) {
  const std::size_t n = plan.size();
  // Loop `body` (one pass over the plan, `calls` timed calls) until it has
  // run for target_s; returns seconds per call.  One span covers all the
  // passes, so the probes leave the operations' spans in the per-thread
  // trace buffer.
  const auto per_call = [target_s](const char* name, std::size_t calls,
                                   auto&& body) {
    Timed timed(name, calls, nullptr, "calls_per_pass");
    const Clock::time_point t0 = Clock::now();
    double total = 0.0;
    std::size_t done = 0;
    do {
      body();
      done += calls;
      total = seconds_since(t0);
    } while (total < target_s);
    return done == 0 ? 0.0 : total / static_cast<double>(done);
  };

  QueryLayers L;
  std::size_t sink = 0;  // keeps every result observable
  std::vector<std::string> payloads(n);
  L.predict_request_s = per_call("protocol.predict_request", n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      payloads[i] = serve::predict_request(plan[i]);
    }
  });
  L.parse_request_s = per_call("protocol.parse_request", n, [&] {
    for (const std::string& payload : payloads) {
      sink += serve::parse_request(payload).has_value();
    }
  });
  std::vector<serve::Prediction> results;
  L.predict_s = per_call("query_engine.predict_batch", n, [&] {
    results = engine.predict_batch(snapshot, plan);
  });
  std::vector<std::string> jsons(n);
  L.prediction_json_s = per_call("protocol.prediction_json", n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      jsons[i] = serve::prediction_json(results[i]);
    }
  });
  L.parse_prediction_s = per_call("protocol.parse_prediction", n, [&] {
    for (const std::string& json : jsons) {
      sink += serve::parse_prediction(json).has_value();
    }
  });
  L.find_alpha_s = per_call("snapshot.find_alpha", n, [&] {
    for (const serve::QueryKey& q : plan) {
      sink += snapshot.find_alpha(q.application, q.config, q.ranks,
                                  q.chain_length) != nullptr;
    }
  });

  // The database scans behind the nearest-donor path, and the fitted model
  // evaluation behind the model path, over the plan's NPB queries.
  const coupling::CouplingDatabase& db = snapshot.database();
  std::vector<std::pair<const serve::QueryKey*, std::size_t>> looped;
  std::vector<std::pair<const std::vector<kcoup::model::PiecewiseModel>*, double>>
      evaluations;
  std::size_t kernel_evals = 0;
  for (const serve::QueryKey& q : plan) {
    const auto* fitted = snapshot.fitted_models_for(q.application);
    const auto shape = workload.shape(q.application, q.config);
    if (fitted == nullptr || fitted->empty() || !shape.has_value()) continue;
    looped.emplace_back(&q, fitted->size());
    evaluations.emplace_back(fitted, shape->grid_extent);
    kernel_evals += fitted->size();
  }
  std::vector<coupling::ChainCoupling> donor;
  L.reuse_chains_s = per_call("database.reuse_chains_into", looped.size(), [&] {
    for (const auto& [q, loop] : looped) {
      sink += db.reuse_chains_into(q->application, q->config, q->ranks,
                                   q->chain_length, loop, &donor);
    }
  });
  std::vector<coupling::CouplingKey> probes;
  for (const auto& [q, loop] : looped) {
    probes.push_back({q->application, q->config, q->ranks, q->chain_length, 0});
  }
  L.find_nearest_s = per_call("database.find_nearest_ranks", probes.size(), [&] {
    for (const coupling::CouplingKey& key : probes) {
      sink += db.find_nearest_ranks_ref(key) != nullptr;
    }
  });
  double acc = 0.0;
  L.piecewise_evaluate_s =
      per_call("model.piecewise_evaluate", kernel_evals, [&] {
        for (std::size_t i = 0; i < evaluations.size(); ++i) {
          const auto& [models, n_extent] = evaluations[i];
          const auto ranks = static_cast<double>(looped[i].first->ranks);
          for (const auto& pw : *models) acc += pw.evaluate(n_extent, ranks);
        }
      });
  g_observed = static_cast<double>(sink) + acc;
  count_sources(results, &L);
  return L;
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void add_layer_metrics(Report& r, const LayerMetrics& m) {
  constexpr double ms = 1e3;
  constexpr double us = 1e6;
  r.add("server.request_p50_ms", m.server_p50_s * ms, "ms");
  r.add("server.request_p95_ms", m.server_p95_s * ms, "ms");
  r.add("server.wire_gap_p50_ms", (m.client_p50_s - m.server_p50_s) * ms, "ms");
  r.add("server.errors", static_cast<double>(m.server_errors), "count");
  r.add("server.rejected_overload", static_cast<double>(m.server_rejected),
        "count");

  const QueryLayers& q = m.query;
  r.add("protocol.predict_request_us", q.predict_request_s * us, "us");
  r.add("protocol.parse_request_us", q.parse_request_s * us, "us");
  r.add("protocol.prediction_json_us", q.prediction_json_s * us, "us");
  r.add("protocol.parse_prediction_us", q.parse_prediction_s * us, "us");
  r.add("query_engine.predict_us", q.predict_s * us, "us");
  r.add("snapshot.find_alpha_us", q.find_alpha_s * us, "us");
  r.add("query_engine.cache_hit_ratio", ratio(m.cache_hits, m.cache_lookups),
        "ratio");
  r.add("query_engine.cache_lookups", static_cast<double>(m.cache_lookups),
        "count");
  r.add("query_engine.source.exact", static_cast<double>(q.exact), "count");
  r.add("query_engine.source.nearest_donor", static_cast<double>(q.nearest),
        "count");
  r.add("query_engine.source.model", static_cast<double>(q.model), "count");

  r.add("database.records", static_cast<double>(m.records), "count");
  r.add("database.reuse_chains_us", q.reuse_chains_s * us, "us");
  r.add("database.find_nearest_ranks_us", q.find_nearest_s * us, "us");
  r.add("model.piecewise_evaluate_us", q.piecewise_evaluate_s * us, "us");

  const PublishTimes& p = m.publish;
  r.add("campaign.run_ms", p.campaign_s * ms, "ms");
  r.add("campaign.plan_ms", p.campaign.plan_s * ms, "ms");
  r.add("campaign.measure_ms", p.campaign.measure_s * ms, "ms");
  r.add("campaign.assemble_ms", p.campaign.assemble_s * ms, "ms");
  r.add("campaign.tasks_executed",
        static_cast<double>(p.campaign.tasks_executed), "count");
  r.add("campaign.tasks_deduplicated",
        static_cast<double>(p.campaign.tasks_deduplicated), "count");
  r.add("campaign.handles_reused_ratio",
        ratio(p.campaign.handles_reused,
              p.campaign.handles_reused + p.campaign.handles_created),
        "ratio");

  const BuildBreakdown& b = m.build;
  r.add("coupling.save_csv_ms", p.save_csv_s * ms, "ms");
  r.add("coupling.load_csv_ms", b.load_csv_s * ms, "ms");
  r.add("snapshot.csv_reload_ms", p.csv_reload_s * ms, "ms");
  r.add("snapshot.alpha_groups_ms", b.alpha_groups_s * ms, "ms");
  r.add("model.fit_piecewise_ms", b.fit_piecewise_s * ms, "ms");
  r.add("model.detect_transitions_ms", b.detect_transitions_s * ms, "ms");
  r.add("drift.compute_ms", b.drift_s * ms, "ms");
  r.add("pack.pack_ms", p.pack_s * ms, "ms");
  r.add("pack.bytes", static_cast<double>(p.pack_bytes), "B");
  r.add("pack.kcs_reload_ms", p.kcs_reload_s * ms, "ms");
  r.add("pack.verify_ms", b.verify_s * ms, "ms");

  r.add("recalibrate.op_ms", m.cycle_s * ms, "ms");
  r.add("recalibrate.unattributed_ms", m.unattributed_s * ms, "ms");
  r.add("recalibrate.unattributed_share",
        m.cycle_s > 0.0 ? m.unattributed_s / m.cycle_s : 0.0, "ratio");
  r.add("obs.trace_overhead_pct", m.trace_overhead_pct, "%");
}

void add_end_to_end(Report& r, const EndToEnd& e) {
  r.add("setup_s", e.setup_s, "s");
  r.add("throughput_per_s", e.throughput_per_s, "1/s");
  r.add("p50_ms", e.p50_s * 1e3, "ms");
  r.add("p90_ms", e.p90_s * 1e3, "ms");
  r.add("cpu_us_per_op", e.cpu_s_per_op * 1e6, "us");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

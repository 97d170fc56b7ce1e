#include "serve/query_engine.hpp"

#include <cmath>
#include <utility>

#include "coupling/analysis.hpp"
#include "coupling/database.hpp"
#include "model/select.hpp"
#include "trace/stats.hpp"

namespace kcoup::serve {

QueryEngine::QueryEngine(const Workload* workload, EngineOptions options)
    : workload_(workload),
      cells_(options.cache_capacity, kCacheShards) {}

std::optional<CellInputs> QueryEngine::cell(const std::string& application,
                                            const std::string& config,
                                            int ranks, bool* was_hit) {
  CellInputs out;
  if (!cell_into(CellKey{application, config, ranks}, &out, was_hit)) {
    return std::nullopt;
  }
  return out;
}

bool QueryEngine::cell_into(const CellKey& key, CellInputs* out,
                            bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (cells_.get_into(key, out)) {
    if (was_hit != nullptr) *was_hit = true;
    return true;
  }
  if (!workload_->valid_cell(key.application, key.config, key.ranks)) {
    return false;
  }
  *out = workload_->measure_cell(key.application, key.config, key.ranks);
  cells_.put(key, *out);
  return true;
}

Prediction QueryEngine::predict(const PredictorSnapshot& snapshot,
                                const QueryKey& query) {
  Prediction p;
  p.key = query;
  p.snapshot_version = snapshot.version();

  const auto canonical =
      workload_->canonical(query.application, query.config);
  if (!canonical.has_value()) {
    p.error = "unknown application/config '" + query.application + "/" +
              query.config + "'";
    return p;
  }
  p.key.application = canonical->first;
  p.key.config = canonical->second;
  if (query.ranks < 1) {
    p.error = "ranks must be >= 1";
    return p;
  }
  if (query.chain_length < 1) {
    p.error = "chain length must be >= 1";
    return p;
  }

  thread_local RequestScratch scratch;

  // 1. Cell inputs: memoized measurement, or fitted-model extrapolation
  //    for configurations that cannot run.  Both land in the per-thread
  //    scratch; string/vector assignment reuses its warm buffers.
  scratch.cell_key.application = p.key.application;
  scratch.cell_key.config = p.key.config;
  scratch.cell_key.ranks = p.key.ranks;
  const coupling::PredictionInputs* inputs = nullptr;
  std::size_t loop_size = 0;
  if (cell_into(scratch.cell_key, &scratch.cell, &p.cache_hit)) {
    inputs = &scratch.cell.inputs;
    loop_size = scratch.cell.loop_size;
    p.actual_s = scratch.cell.actual_s;
    p.summation_s = scratch.cell.summation_s;
    p.inputs_source = "measured";
  } else {
    const auto* fitted = snapshot.fitted_models_for(p.key.application);
    const auto shape = workload_->shape(p.key.application, p.key.config);
    if (fitted == nullptr || !shape.has_value()) {
      p.error = "cell " + p.key.application + "/" + p.key.config + "/P=" +
                std::to_string(p.key.ranks) +
                " cannot be measured and no scaling models are fitted";
      return p;
    }
    coupling::PredictionInputs& mi = scratch.model_inputs;
    // The scratch persists across queries, so every field a fresh local
    // would zero-initialize must be reset here — stale prologue/epilogue
    // seconds from an earlier measured query would otherwise leak in.
    mi.isolated_means.clear();
    mi.prologue_s = 0.0;
    mi.epilogue_s = 0.0;
    mi.iterations = shape->iterations;
    const double ranks_d = static_cast<double>(p.key.ranks);
    // The cross-validated piecewise models: the segment covering the
    // queried P supplies both the extrapolation and the reported form.
    loop_size = fitted->size();
    mi.isolated_means.reserve(loop_size);
    for (const model::PiecewiseModel& pw : *fitted) {
      const model::SelectedModel& form = pw.segment_for(ranks_d).model;
      mi.isolated_means.push_back(form.evaluate(shape->grid_extent, ranks_d));
      if (!p.model_form.empty()) p.model_form += ',';
      form.append_term_names(&p.model_form);
    }
    p.summation_s = coupling::summation_prediction(mi);
    p.inputs_source = "model";
    inputs = &mi;
  }
  if (query.chain_length > loop_size) {
    p.error = "chain length " + std::to_string(query.chain_length) +
              " exceeds loop size " + std::to_string(loop_size);
    return p;
  }

  // 2. Coupling coefficients: precomputed exact group, else nearest-ranks
  //    donor chains assembled from the database.
  const AlphaGroup* group = snapshot.find_alpha(
      p.key.application, p.key.config, p.key.ranks, query.chain_length);
  if (group != nullptr && group->loop_size == loop_size) {
    p.coupling_s = coupling::alpha_prediction(*inputs, group->alpha);
    p.alpha_source = "exact";
  } else {
    if (!snapshot.database().nearest_donors_into(
            p.key.application, p.key.config, p.key.ranks, query.chain_length,
            loop_size, &scratch.donors)) {
      p.error = "no coupling data for " + p.key.application + "/" +
                p.key.config + " q=" + std::to_string(query.chain_length);
      return p;
    }
    // loop_size >= chain_length >= 1, so there is a chain_start=0 donor;
    // its rank count feeds the server's rank-distance telemetry.
    p.donor_ranks = scratch.donors.front()->key.ranks;
    p.coupling_s = coupling::reuse_prediction(*inputs, scratch.donors);
    p.alpha_source = "nearest";
  }

  if (std::isfinite(p.actual_s) && p.actual_s > 0.0) {
    p.coupling_error = trace::relative_error(p.coupling_s, p.actual_s);
    p.summation_error = trace::relative_error(p.summation_s, p.actual_s);
  }
  // One client-facing name for the fallback path that answered: model
  // extrapolation dominates (the inputs carry no measurement), otherwise
  // the alpha provenance decides between exact and nearest-donor reuse.
  if (p.inputs_source == "model") {
    p.source = "model";
  } else {
    p.source = p.alpha_source == "exact" ? "exact" : "nearest-donor";
  }
  p.ok = true;
  return p;
}

void QueryEngine::predict_batch_into(const PredictorSnapshot& snapshot,
                                     std::span<const QueryKey> queries,
                                     std::vector<Prediction>* out) {
  out->clear();
  out->reserve(queries.size());
  for (const QueryKey& q : queries) out->push_back(predict(snapshot, q));
}

std::vector<Prediction> QueryEngine::predict_batch(
    const PredictorSnapshot& snapshot, std::span<const QueryKey> queries) {
  std::vector<Prediction> out;
  predict_batch_into(snapshot, queries, &out);
  return out;
}

}  // namespace kcoup::serve

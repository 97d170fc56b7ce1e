#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/sharded_lru.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"

namespace kcoup::serve {

/// One prediction request: which application/configuration/processor count,
/// and which chain length's coupling coefficients to compose with.
struct QueryKey {
  std::string application;
  std::string config;
  int ranks = 1;
  std::size_t chain_length = 2;

  [[nodiscard]] bool operator==(const QueryKey&) const = default;
};

/// One answered (or refused) prediction.
struct Prediction {
  bool ok = false;
  std::string error;       ///< set when !ok
  QueryKey key;            ///< canonical spelling
  double coupling_s = std::numeric_limits<double>::quiet_NaN();
  double summation_s = std::numeric_limits<double>::quiet_NaN();
  double actual_s = std::numeric_limits<double>::quiet_NaN();
  double coupling_error = std::numeric_limits<double>::quiet_NaN();
  double summation_error = std::numeric_limits<double>::quiet_NaN();
  std::string alpha_source;   ///< "exact" | "nearest" | ""
  std::string inputs_source;  ///< "measured" | "model" | ""
  /// Which fallback path produced the prediction, as one client-facing
  /// name: "exact" (measured cell + precomputed alpha), "nearest-donor"
  /// (measured cell, donor chains from another rank count), or "model"
  /// (cell inputs extrapolated from the fitted scaling models).  Empty on
  /// errors.
  std::string source;
  /// The selected model form(s) behind a "model"-sourced prediction: the
  /// per-kernel term names of the piecewise segment active at the queried
  /// P, comma-joined in loop order.  Empty unless source == "model".
  std::string model_form;
  /// Rank count of the donor record behind a nearest-donor answer (the
  /// chain_start=0 donor stands in for the group); 0 when the alpha came
  /// from an exact group or a model.  Feeds the server's donor
  /// rank-distance histogram and the "donor_ranks" wire field.
  int donor_ranks = 0;
  bool cache_hit = false;     ///< cell inputs served from the memo cache
  std::uint64_t snapshot_version = 0;
};

struct EngineOptions {
  /// Cell-memo capacity ((application, config, ranks) entries); 0 disables
  /// memoization — every query re-measures, bit-identically.
  std::size_t cache_capacity = 1024;
};

/// The read side of the prediction service.  Stateless with respect to any
/// particular snapshot (callers pass the snapshot they loaded for the
/// request), so a hot snapshot swap needs no engine coordination: cell
/// inputs depend only on the workload, never on the database.
///
/// Hot path per query: one sharded-LRU lookup for the cell inputs (isolated
/// means et al.), one hash probe for the snapshot's precomputed alpha, then
/// the composition algebra T = Tinit + I * sum_k alpha_k E_k + Tfinal.  A
/// cell miss measures the N cheap isolated loops once (two workers racing
/// on the same cold cell may both measure; the values are deterministic, so
/// last-write-wins is harmless).  Missing exact coupling groups fall back
/// to the database's nearest-ranks donors: one hash probe for the
/// (application, config, chain_length) group and one pass over its compact
/// entries, with alpha_k computed straight from the donors' (P_S, sum P_k)
/// — no chain objects, labels or alpha vector.  Cells that cannot be
/// measured at all fall back to the snapshot's fitted scaling models, whose
/// active forms' term names are appended straight into the answer.
class QueryEngine {
 public:
  QueryEngine(const Workload* workload, EngineOptions options = {});

  [[nodiscard]] Prediction predict(const PredictorSnapshot& snapshot,
                                   const QueryKey& query);
  /// One predict per query, in order, into *out, whose storage is reused:
  /// a server shard keeps one result vector across windows, so a warm
  /// window of exact queries allocates nothing here.  A throw from predict
  /// leaves *out holding the answers before it.
  void predict_batch_into(const PredictorSnapshot& snapshot,
                          std::span<const QueryKey> queries,
                          std::vector<Prediction>* out);
  /// predict_batch_into a new vector.
  [[nodiscard]] std::vector<Prediction> predict_batch(
      const PredictorSnapshot& snapshot, std::span<const QueryKey> queries);

  /// Cache-through cell accessor (nullopt when the cell cannot be
  /// measured).  Also the CellFn wired into SnapshotSource, so snapshot
  /// builds and queries share one memo.  `was_hit`, when given, reports
  /// whether the memo served the call.
  [[nodiscard]] std::optional<CellInputs> cell(const std::string& application,
                                               const std::string& config,
                                               int ranks,
                                               bool* was_hit = nullptr);

  [[nodiscard]] CacheStats cache_stats() const { return cells_.stats(); }

 private:
  struct CellKey {
    std::string application;
    std::string config;
    int ranks = 1;
    [[nodiscard]] bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    [[nodiscard]] std::size_t operator()(const CellKey& k) const {
      std::size_t h = std::hash<std::string>{}(k.application);
      h = h * 1000003 + std::hash<std::string>{}(k.config);
      h = h * 1000003 + std::hash<int>{}(k.ranks);
      return h;
    }
  };

  /// Per-thread request state, reused across predict() calls so a warm
  /// query allocates nothing: the LRU hit assigns into `cell`'s existing
  /// buffers, the fallback paths fill `model_inputs`/`donors` in place.
  /// Every field is (re)written before it is read within one call — stale
  /// values can never leak into a later query.
  struct RequestScratch {
    CellKey cell_key;
    CellInputs cell;
    coupling::PredictionInputs model_inputs;
    std::vector<const coupling::CouplingRecord*> donors;
  };

  bool cell_into(const CellKey& key, CellInputs* out, bool* was_hit);

  /// Lock stripes of the cell memo.
  static constexpr std::size_t kCacheShards = 8;

  const Workload* workload_;
  ShardedLruCache<CellKey, CellInputs, CellKeyHash> cells_;
};

}  // namespace kcoup::serve

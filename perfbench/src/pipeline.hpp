#pragma once

// The layers every workload shares: the operator's publish path (campaign
// -> CSV -> CSV snapshot -> .kcs -> packed snapshot), its traced
// decomposition into the public calls a CSV snapshot build is made of, the
// in-process per-query layer probe, and the per-layer metric set.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "coupling/database.hpp"
#include "layers.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

/// Campaign worker threads: with the main thread waiting on them, the
/// recalibrate workload keeps at most two busy cores.
inline constexpr std::size_t kCampaignWorkers = 2;

/// Wall time of each step of one publish, plus what the steps reported.
struct PublishTimes {
  double campaign_s = 0.0;
  double save_csv_s = 0.0;
  double csv_reload_s = 0.0;
  double pack_s = 0.0;
  double kcs_reload_s = 0.0;
  kcoup::campaign::CampaignMetrics campaign;
  std::size_t pack_bytes = 0;
  std::size_t records = 0;
  bool reloaded = false;  ///< both poll() calls published a new snapshot

  [[nodiscard]] double total_s() const {
    return campaign_s + save_csv_s + csv_reload_s + pack_s + kcs_reload_s;
  }
};

/// Field-wise median over several publishes (counts from the last one).
[[nodiscard]] PublishTimes median_of(const std::vector<PublishTimes>& runs);

/// The operator's publish path.  Owns one CSV and one .kcs SnapshotSource;
/// every publish rewrites both files and reloads both sources synchronously
/// through poll(), so repeated publishes exercise the hot-reload path a
/// long-running server takes.  The CSV source's CellFn is the engine's
/// cache-through cell accessor, so model fitting reads warm cells.
class Publisher {
 public:
  Publisher(std::string csv_path, std::string kcs_path,
            kcoup::serve::QueryEngine* engine);

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// run_campaign (kCampaignWorkers, fresh database so every task is
  /// measured) -> `extend` (optional, untimed input generation) ->
  /// save_csv_file -> poll CSV -> pack_snapshot_file -> poll .kcs.
  PublishTimes publish(
      const kcoup::campaign::CampaignSpec& spec, std::uint64_t op,
      const std::function<void(kcoup::coupling::CouplingDatabase&)>& extend =
          {});

  [[nodiscard]] const std::string& csv_path() const { return csv_path_; }
  [[nodiscard]] const std::string& kcs_path() const { return kcs_path_; }
  [[nodiscard]] kcoup::serve::SnapshotSource& csv_source() { return csv_; }
  [[nodiscard]] kcoup::serve::SnapshotSource& kcs_source() { return kcs_; }

 private:
  std::string csv_path_;
  std::string kcs_path_;
  kcoup::serve::SnapshotSource csv_;
  kcoup::serve::SnapshotSource kcs_;
};

/// A CSV snapshot build split into the public calls it is made of, each
/// timed on its own (median of `reps`): the parse, the alpha groups alone
/// (fitting and detection off), the piecewise fits over the same samples
/// the snapshot fits, the transition scan, a drift report against the
/// database minus its largest rank count, and the packed file's verify.
struct BuildBreakdown {
  double load_csv_s = 0.0;
  double alpha_groups_s = 0.0;
  double fit_piecewise_s = 0.0;
  double detect_transitions_s = 0.0;
  double drift_s = 0.0;
  double verify_s = 0.0;
};

[[nodiscard]] BuildBreakdown decompose_build(const Publisher& publisher,
                                             kcoup::serve::QueryEngine& engine,
                                             int reps);

/// Per-call cost of each query-path layer over a plan, measured in process
/// against one snapshot, plus the plan's source mix.
struct QueryLayers {
  double predict_request_s = 0.0;
  double parse_request_s = 0.0;
  double predict_s = 0.0;  ///< QueryEngine::predict_batch / queries
  double prediction_json_s = 0.0;
  double parse_prediction_s = 0.0;
  double find_alpha_s = 0.0;
  double reuse_chains_s = 0.0;
  double find_nearest_s = 0.0;
  double piecewise_evaluate_s = 0.0;  ///< one kernel model, one point
  std::uint64_t exact = 0;
  std::uint64_t nearest = 0;
  std::uint64_t model = 0;
  std::uint64_t failed = 0;
};

/// Each layer loops over the whole plan, repeated until it has run for
/// about `target_s` (at least once), one span per pass.
[[nodiscard]] QueryLayers probe_query_layers(
    const kcoup::serve::PredictorSnapshot& snapshot,
    kcoup::serve::QueryEngine& engine, const kcoup::serve::Workload& workload,
    const std::vector<kcoup::serve::QueryKey>& plan, double target_s);

/// Every per-layer metric a traced run reports.  A layer that is not on a
/// workload's path reads 0 (the server on recalibrate, the cycle
/// remainder on the serve workloads).
struct LayerMetrics {
  double server_p50_s = 0.0;
  double server_p95_s = 0.0;
  std::uint64_t server_errors = 0;
  std::uint64_t server_rejected = 0;
  double client_p50_s = 0.0;
  QueryLayers query;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t records = 0;
  PublishTimes publish;
  BuildBreakdown build;
  double cycle_s = 0.0;         ///< recalibrate: median operation time
  double unattributed_s = 0.0;  ///< recalibrate: median op - timed calls
  double trace_overhead_pct = 0.0;
};

void add_layer_metrics(Report& report, const LayerMetrics& m);

/// The six end-to-end metrics, in their fixed order.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double cpu_s_per_op = 0.0;
};

void add_end_to_end(Report& report, const EndToEnd& e);

}  // namespace perfbench

#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/faultsim.hpp"
#include "coupling/kernel.hpp"
#include "coupling/measurement.hpp"
#include "obs/metrics.hpp"
#include "report/table.hpp"

namespace kcoup::campaign {

/// Type-erased ownership of whatever backs a LoopApplication (a ModeledApp,
/// a timed-app bundle, a test fixture...).  The executor keeps one instance
/// per claimed study cell and resets it between that cell's tasks, so
/// concurrent tasks never share mutable machine state.
class AppHandle {
 public:
  AppHandle(std::shared_ptr<void> owner, const coupling::LoopApplication* app)
      : owner_(std::move(owner)), app_(app) {}

  [[nodiscard]] const coupling::LoopApplication& app() const { return *app_; }

 private:
  std::shared_ptr<void> owner_;
  const coupling::LoopApplication* app_;
};

/// Builds a fresh, independent application instance.  Must be safe to call
/// concurrently from multiple threads; every returned instance must be
/// deterministic under reset(), because the executor runs all of a claimed
/// unit's tasks on one instance and the serial and concurrent campaign
/// paths must agree.
using AppFactory = std::function<AppHandle()>;

/// Wrap an owner exposing `const LoopApplication& app()` (e.g. a
/// coupling::ModeledApp) into a handle that keeps it alive.
template <typename Owner>
[[nodiscard]] AppHandle own_app(std::unique_ptr<Owner> owner) {
  const coupling::LoopApplication* app = &owner->app();
  return AppHandle(std::shared_ptr<void>(std::move(owner)), app);
}

/// Non-owning view of an application the caller keeps alive.  Only safe for
/// serial execution (one worker): concurrent tasks would share its state.
[[nodiscard]] inline AppHandle borrow_app(const coupling::LoopApplication* app) {
  return AppHandle(nullptr, app);
}

/// Re-measure a task whose sample spread is too high.  Disabled by default
/// (infinite threshold), which keeps the executor bit-identical to the
/// serial measurement path.
struct RetryPolicy {
  /// Retry when stddev/mean of the repetition samples exceeds this.
  double max_relative_stddev = 1e300;
  /// Total measurement attempts per task (first try included).
  int max_attempts = 3;
};

/// One cell of the sweep: a labelled configuration plus the factory that
/// instantiates it.  The (application, config, ranks) triple is the identity
/// used for task deduplication and CouplingDatabase keys, so two cells with
/// the same triple must describe the same application.
struct CampaignStudy {
  std::string application;  ///< e.g. "BT"
  std::string config;       ///< e.g. "W"
  int ranks = 1;
  AppFactory factory;
};

/// A whole measurement campaign: every study is measured at every chain
/// length with the shared measurement options.
struct CampaignSpec {
  std::vector<CampaignStudy> studies;
  std::vector<std::size_t> chain_lengths;  ///< e.g. {2, 3, 4}
  coupling::MeasurementOptions measurement;
  RetryPolicy retry;
  /// Deterministic fault injection (off by default).  When enabled, the
  /// executor throws or perturbs the selected tasks; selection is a pure
  /// function of (faults.seed, TaskKey), so the same plan fails the same
  /// way at any worker count.
  FaultPlan faults;
  /// When non-empty, every completed task is appended to this JSONL journal
  /// (write-then-flush) and, on the next run, keys already present in the
  /// file are replayed into the plan as cache hits — a killed campaign
  /// resumes without re-measuring.
  std::string journal_path;
};

/// The key/value text form of a campaign sweep (`kcoup campaign --spec`).
/// Application names stay as strings; the caller resolves them to factories
/// (the CLI builds modeled NPB apps).  Format: one `key = value` per line,
/// `#` comments, lists comma-separated.  Keys: apps, classes, procs, chains,
/// repetitions, warmup, epilogue_repetitions, workers, machine, retry_rsd,
/// retry_max.
struct CampaignTextSpec {
  std::vector<std::string> applications;        ///< e.g. {"bt", "sp"}
  std::vector<std::string> configs;             ///< e.g. {"W", "A"}
  std::vector<int> ranks;                       ///< e.g. {4, 9, 16}
  std::vector<std::size_t> chain_lengths = {2};
  coupling::MeasurementOptions measurement;
  RetryPolicy retry;
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  std::string machine = "ibm-sp";
};

/// The smallest value each numeric field of the text form accepts.
/// parse_campaign_text refuses a line below it, and every `kcoup campaign`
/// flag that sets the same field checks the same bound, so a flag accepts
/// nothing its spec key refuses.
struct TextSpecMinimum {
  static constexpr int kRanks = 1;        ///< each procs entry
  static constexpr int kChainLength = 1;  ///< each chains entry
  static constexpr int kRepetitions = 1;
  static constexpr int kWarmup = 0;
  static constexpr int kEpilogueRepetitions = 1;
  static constexpr int kWorkers = 0;  ///< 0 = hardware concurrency
  static constexpr double kRetryRsd = 0.0;
  static constexpr int kRetryMax = 1;
};

/// Parses the text form; throws std::runtime_error (naming the offending
/// key) on unknown keys, malformed values, or values below their
/// TextSpecMinimum.
[[nodiscard]] CampaignTextSpec parse_campaign_text(std::istream& in);

/// Serializes a CampaignTextSpec back to the text form parse_campaign_text
/// accepts; round-trips every field exactly (doubles are written with
/// 17 significant digits in the C locale).
[[nodiscard]] std::string to_text(const CampaignTextSpec& spec);

/// Planner/executor observability: how much work the campaign asked for,
/// how much was actually run, and where the time went.
struct CampaignMetrics {
  std::size_t studies = 0;
  std::size_t workers = 1;
  std::size_t tasks_requested = 0;     ///< naive: one serial study per
                                       ///< (cell, chain length)
  std::size_t tasks_planned = 0;       ///< after dedup and cache lookup
  std::size_t tasks_deduplicated = 0;  ///< requested - planned - cache hits
  std::size_t cache_hits = 0;          ///< chains served by the database
  std::size_t journal_hits = 0;        ///< tasks replayed from a resume journal
  std::size_t tasks_executed = 0;
  std::size_t tasks_retried = 0;       ///< extra attempts beyond the first
  std::size_t tasks_failed = 0;        ///< tasks that exhausted the retry budget
  std::size_t handles_created = 0;     ///< factory calls by the executor
  std::size_t handles_reused = 0;      ///< tasks run on their unit's instance
  double plan_s = 0.0;
  double measure_s = 0.0;
  double assemble_s = 0.0;
  double wall_s = 0.0;
  /// Per-task measurement wall-clock (handle acquisition included), over the
  /// tasks this campaign actually executed; all zero when none ran.
  double task_min_s = 0.0;
  double task_max_s = 0.0;
  double task_mean_s = 0.0;

  [[nodiscard]] report::Table to_table() const;
  /// Header line + one data row.
  [[nodiscard]] std::string to_csv() const;
  /// One self-contained JSON object (JSONL record).
  [[nodiscard]] std::string to_jsonl() const;

  /// Read a metrics view out of an obs::MetricsRegistry populated by the
  /// executor ("campaign.*" counters and gauges).  The registry is the
  /// canonical store; this struct is the rendering view over it, and the
  /// round trip is bit-exact (counters are integers, gauges atomic doubles),
  /// so table/CSV/JSONL output is unchanged by the indirection.
  [[nodiscard]] static CampaignMetrics from_registry(
      obs::MetricsRegistry& registry);
  /// Publish this struct's values into `registry` under the same
  /// "campaign.*" names from_registry() reads.
  void publish(obs::MetricsRegistry& registry) const;
};

}  // namespace kcoup::campaign

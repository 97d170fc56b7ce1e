#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "coupling/database.hpp"
#include "coupling/study.hpp"

namespace kcoup::campaign {

/// One task that exhausted its retry budget.  The campaign keeps going: the
/// failure is recorded here instead of aborting the sweep, and every value
/// the task would have produced becomes an explicit missing marker (NaN) in
/// the affected studies.
struct TaskFailure {
  TaskKey key;
  int attempts = 0;   ///< total attempts spent (exceptions + noise retries)
  std::string what;   ///< the final attempt's exception message
};

/// Everything a campaign produces: one StudyResult per spec study (same
/// order) plus the planner/executor metrics.  When tasks failed, the
/// affected studies are *partial*: each value derived from a failed task is
/// quiet-NaN, the task keys behind the holes are listed per study in
/// `missing`, and the failures themselves (key order) in `failures`.
struct CampaignResult {
  std::vector<coupling::StudyResult> studies;
  std::vector<TaskFailure> failures;       ///< sorted by TaskKey
  std::vector<std::vector<TaskKey>> missing;  ///< per study, unresolved keys
  CampaignMetrics metrics;

  /// True iff every task succeeded and every study is fully populated.
  [[nodiscard]] bool complete() const { return failures.empty(); }
};

/// How one task ended: its measured value (successes), the wall-clock it
/// consumed, and the attempts it took.
struct TaskExecution {
  double value = 0.0;
  int attempts = 1;
  double seconds = 0.0;  ///< wall-clock, handle acquisition included
  bool ok = false;
};

/// What executing a bare task set produced.  `outcomes` holds every task —
/// failed ones with `ok == false` — keyed exactly like the plan.
struct TaskSetResult {
  std::map<TaskKey, TaskExecution> outcomes;
  std::vector<TaskFailure> failures;  ///< unsorted (worker completion order)
  std::size_t handles_created = 0;
  std::size_t handles_reused = 0;
};

/// Raw task-set execution: run exactly `tasks` — no planning, no assembly —
/// with the same claim loop, handle pooling, retry, fault-injection and
/// failure-isolation semantics as execute_plan().  Task values are
/// bit-identical to what execute_plan would measure for the same keys: every
/// task starts from a reset application, so executing a subset (a shard's
/// partition) changes nothing about any individual measurement.  When
/// `journal` is non-null every finished task is appended — successes with
/// their value, exhausted-retry failures as error records — and flushed.
/// Ticks the live "campaign.tasks_executed/retried/failed" counters and the
/// "campaign.task_seconds" histogram in `registry` (nullptr = run-local).
/// Only CampaignAborted escapes, as in execute_plan.
[[nodiscard]] TaskSetResult execute_tasks(
    const CampaignSpec& spec, const std::vector<MeasurementTask>& tasks,
    std::size_t workers = 0, obs::MetricsRegistry* registry = nullptr,
    TaskJournal* journal = nullptr);

/// Deterministic assembly of per-study results from resolved task values:
/// the exact accumulation order of the serial measure_chains()/run_study()
/// path, so wherever `value_of` returns the serial measurement the output
/// is bit-identical to it.  `value_of` returns nullopt for a failed or
/// missing task; every value derived from one becomes quiet-NaN and the key
/// lands in the study's `missing` list.  Fills `studies` and `missing`
/// only — failures and metrics are the caller's.
[[nodiscard]] CampaignResult assemble_campaign(
    const CampaignSpec& spec, const CampaignPlan& plan,
    const std::function<std::optional<double>(const TaskKey&)>& value_of);

/// Record every finite measured chain of `result` into `db`, in spec-study
/// order — the single recording path run_campaign() and the shard-merge
/// coordinator share, so both produce byte-identical stores for identical
/// results.  NaN missing markers and degenerate values are skipped.
void record_campaign(const CampaignSpec& spec, const CampaignResult& result,
                     coupling::CouplingDatabase& db);

/// Execute a plan with `workers` threads (0 = hardware concurrency, 1 =
/// the calling thread alone).  The tasks are grouped by study cell
/// (application, config, ranks), and the calling thread and `workers - 1`
/// helpers claim whole cells off one cursor, dearest summed planner cost
/// first, so a straggler cannot serialize the tail; with fewer cells than
/// workers each cell splits into ceil(workers / cells) contiguous slices.
/// A worker runs a claimed cell's tasks back to back on one application
/// instance (every measurement starts from app.reset(), so instances are
/// interchangeable): with at least as many cells as workers, one instance
/// is built per cell.  Set CampaignSpec::pool_handles = false to
/// instantiate a fresh application per task instead.  Assembly is
/// deterministic — the same StudyResults regardless of worker count,
/// pooling or claim order, and bit-identical to coupling::run_study() on
/// each cell.
///
/// Failure isolation: a task whose acquisition or measurement throws is
/// retried up to CampaignSpec::retry.max_attempts total attempts, then
/// recorded as a TaskFailure while the rest of the campaign completes.
/// Only CampaignAborted (injected crash) escapes.  When
/// CampaignSpec::journal_path is set, each completed task is appended to
/// the JSONL journal (flushed per entry) as it finishes.
///
/// Observability: "campaign.*" counters (tasks_executed, tasks_retried,
/// tasks_failed, ...) are updated live in `registry` as tasks finish, the
/// per-task wall-clock distribution lands in the
/// "campaign.task_seconds" histogram, and the returned CampaignMetrics is
/// read back out of the registry (CampaignMetrics::from_registry).  Pass a
/// *fresh* registry to watch a run from another thread; nullptr uses a
/// run-local one.  When obs::Tracer is enabled, every task, measurement
/// attempt and retry emits a span (category "campaign").
[[nodiscard]] CampaignResult execute_plan(
    const CampaignSpec& spec, const CampaignPlan& plan,
    std::size_t workers = 0, obs::MetricsRegistry* registry = nullptr);

/// Plan + execute.  When `db` is given, chains it already holds are served
/// from it (cache hits) and every chain measured or assembled by the
/// campaign is recorded back, so later campaigns keep shrinking.  When
/// `spec.journal_path` names an existing journal, its completed keys are
/// replayed into the plan before execution (journal_hits), so a killed
/// campaign resumes exactly where it stopped.  `registry` as in
/// execute_plan().
[[nodiscard]] CampaignResult run_campaign(
    const CampaignSpec& spec, std::size_t workers = 0,
    coupling::CouplingDatabase* db = nullptr,
    obs::MetricsRegistry* registry = nullptr);

}  // namespace kcoup::campaign

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/task_key.hpp"
#include "coupling/database.hpp"

namespace kcoup::campaign {

/// Structure of one study's application, captured once at planning time by
/// instantiating its factory: everything assembly needs without touching
/// the application again.
struct StudyShape {
  std::size_t loop_size = 0;
  std::size_t prologue_size = 0;
  std::size_t epilogue_size = 0;
  int iterations = 1;
  std::vector<std::string> kernel_names;  ///< main-loop kernels, loop order
};

/// One task to execute: its identity plus a study whose factory can build
/// the application that performs it.  `cost` is the planner's execution-cost
/// estimate in kernel invocations — chain traversals multiply chain length
/// by the repetition budget, actual/epilogue tasks pay for full application
/// runs — which the executor sums per study cell to claim the dearest
/// cells first, so one expensive straggler cannot serialize the tail.
struct MeasurementTask {
  TaskKey key;
  std::size_t study = 0;
  double cost = 1.0;
};

/// The deduplicated execution plan for a campaign.  All tasks are mutually
/// independent (every measurement starts from a reset application), so the
/// executor may run them in any order or concurrently; assembly joins them
/// back into per-study results through the key space.
struct CampaignPlan {
  std::vector<MeasurementTask> tasks;
  /// Values served without execution: chain_time from the database, plus any
  /// task value replayed from a resume journal.
  std::map<TaskKey, double> cached;
  std::vector<StudyShape> shapes;    ///< parallel to spec.studies
  std::size_t tasks_requested = 0;
  std::size_t tasks_deduplicated = 0;
  std::size_t cache_hits = 0;
  std::size_t journal_hits = 0;      ///< tasks replayed by apply_journal()
};

/// Expand a spec into the minimal set of atomic measurements:
///
///  * per cell, the N isolated measurements, the actual run and the
///    prologue/epilogue measurements are planned once, not once per chain
///    length;
///  * duplicate cells (same application/config/ranks triple) share all
///    tasks;
///  * chain tasks already present in `db` (exact CouplingKey hit) become
///    cache entries instead of tasks.
///
/// Throws std::invalid_argument for chain lengths outside [1, loop size]
/// (mirroring measure_chains), a chain length given twice, or an empty
/// loop.
[[nodiscard]] CampaignPlan plan_campaign(
    const CampaignSpec& spec, const coupling::CouplingDatabase* db = nullptr);

/// Replay journaled results into the plan: every planned task whose key
/// appears in `completed` is moved out of `plan.tasks` and into
/// `plan.cached` with its journaled value, so the executor never re-measures
/// it.  Returns the number of tasks replayed (also accumulated into
/// `plan.journal_hits`).
std::size_t apply_journal(CampaignPlan& plan,
                          const std::map<TaskKey, double>& completed);

}  // namespace kcoup::campaign

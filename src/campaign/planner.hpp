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
/// cells first, so one expensive straggler cannot serialize the tail.  It
/// estimates full pricing; a modeled loop that reaches a fixed point costs
/// far less, so the estimate only ranks cells.
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

/// Positions in a task list, found by key: an open-addressed table of
/// positions over the list itself, so the planner's deduplication and the
/// executor's assembly allocate nothing and copy no key per task.  The
/// list may grow (add_last); the index reads it through the reference.
class TaskIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Indexes every task already in `tasks`.
  explicit TaskIndex(const std::vector<MeasurementTask>& tasks);

  /// Position of the task with `key`, or npos.
  [[nodiscard]] std::size_t find(const TaskKey& key) const {
    return slots_[probe(key)];
  }
  /// Index tasks.back(), whose key find() does not know yet.
  void add_last();

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const TaskKey& key) const;
  void rebuild(std::size_t slots);

  const std::vector<MeasurementTask>* tasks_;
  std::vector<std::size_t> slots_;  ///< positions, npos when empty
  std::size_t size_ = 0;
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

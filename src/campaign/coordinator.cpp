#include "campaign/coordinator.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "obs/trace.hpp"

namespace kcoup::campaign {

namespace {

/// Fold one journal's success records into the value store.  `prefer` keys
/// overwrite an existing value (owner preference, applied in pass 1);
/// non-preferred records only fill gaps and otherwise count as duplicates.
void fold_journal(const JournalLoad& load,
                  const std::set<TaskKey>& planned,
                  bool owner_pass, std::size_t shard, std::size_t shards,
                  std::map<TaskKey, double>& values,
                  std::size_t& duplicates) {
  for (const auto& [key, entry] : load.completed) {
    if (planned.count(key) == 0) continue;  // stale journal from an old spec
    const bool owned = shard_of(key, shards) == shard;
    if (owner_pass != owned) continue;
    if (values.emplace(key, entry.value).second) continue;
    ++duplicates;
  }
}

}  // namespace

MergeResult merge_shards(const CampaignSpec& spec, const MergeOptions& options,
                         obs::MetricsRegistry* registry) {
  if (options.journal_dir.empty()) {
    throw std::invalid_argument("merge_shards: journal_dir must be set");
  }
  const std::size_t manifest = read_shard_count(options.journal_dir);
  std::size_t shards = options.shards;
  if (shards == 0) {
    shards = manifest;
  } else if (manifest != 0 && manifest != shards) {
    throw std::invalid_argument(
        "merge_shards: --shards " + std::to_string(shards) +
        " contradicts the journal directory's manifest (" +
        std::to_string(manifest) + ")");
  }
  if (shards == 0) {
    throw std::invalid_argument(
        "merge_shards: shard count unknown — no shards option and no " +
        shard_count_path(options.journal_dir) + " manifest");
  }

  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg = registry != nullptr ? *registry : local_registry;
  obs::ScopedSpan span("merge", "campaign");
  if (span.active()) {
    span.annotate("shards", static_cast<std::uint64_t>(shards));
  }

  CampaignPlan plan;
  {
    obs::ScopedSpan plan_span("plan", "campaign");
    plan = plan_campaign(spec);
  }
  std::set<TaskKey> planned;
  for (const MeasurementTask& t : plan.tasks) planned.insert(t.key);

  MergeResult merged;
  merged.shards = shards;
  merged.tasks_planned = plan.tasks.size();

  // Load every journal once.  A missing shard journal is not an error —
  // that shard may have died before its first task — but *no* journal at
  // all means the directory is wrong, which should not read as "everything
  // is missing, exit happily with steal".
  std::vector<JournalLoad> loads(shards);
  bool any_journal = false;
  for (std::size_t s = 0; s < shards; ++s) {
    loads[s] = load_journal_file(shard_journal_path(options.journal_dir, s));
    any_journal = any_journal || loads[s].exists;
  }
  const JournalLoad coordinator =
      load_journal_file(coordinator_journal_path(options.journal_dir));
  any_journal = any_journal || coordinator.exists;
  if (!any_journal) {
    throw std::runtime_error("merge_shards: no shard journals under " +
                             options.journal_dir);
  }

  // First-writer-wins with owner preference.  Pass 1 takes each shard's own
  // partition from its own journal; pass 2 lets stolen records (shard
  // order, then the coordinator journal) fill whatever holes remain.
  std::map<TaskKey, double> values;
  for (std::size_t s = 0; s < shards; ++s) {
    fold_journal(loads[s], planned, /*owner_pass=*/true, s, shards, values,
                 merged.duplicates);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    fold_journal(loads[s], planned, /*owner_pass=*/false, s, shards, values,
                 merged.duplicates);
  }
  for (const auto& [key, entry] : coordinator.completed) {
    if (planned.count(key) == 0) continue;
    if (!values.emplace(key, entry.value).second) ++merged.duplicates;
  }
  merged.tasks_merged = values.size();

  for (std::size_t s = 0; s < shards; ++s) {
    ShardJournalStats stats;
    stats.shard = s;
    stats.exists = loads[s].exists;
    stats.completed = loads[s].completed.size();
    stats.failed = loads[s].failed.size();
    stats.malformed = loads[s].malformed;
    stats.torn_tail = loads[s].torn_tail;
    if (stats.torn_tail) ++merged.torn_tails;
    for (const auto& [key, entry] : loads[s].completed) {
      if (shard_of(key, shards) == s) {
        ++stats.owned_completed;
      } else {
        ++stats.stolen_completed;
      }
    }
    merged.shard_stats.push_back(stats);
  }
  if (coordinator.torn_tail) ++merged.torn_tails;

  // Split the unresolved plan keys: a journaled failure record (owner's
  // preferred) makes the key a TaskFailure, exactly as the single-process
  // executor would have reported it; a key with no record at all is missing.
  std::vector<TaskFailure> failures;
  std::vector<MeasurementTask> unrecorded;
  for (const MeasurementTask& t : plan.tasks) {
    if (values.count(t.key) != 0) continue;
    const std::size_t owner = shard_of(t.key, shards);
    const JournalEntry* record = nullptr;
    if (const auto it = loads[owner].failed.find(t.key);
        it != loads[owner].failed.end()) {
      record = &it->second;
    } else {
      for (std::size_t s = 0; s < shards && record == nullptr; ++s) {
        if (const auto it2 = loads[s].failed.find(t.key);
            it2 != loads[s].failed.end()) {
          record = &it2->second;
        }
      }
      if (record == nullptr) {
        if (const auto it3 = coordinator.failed.find(t.key);
            it3 != coordinator.failed.end()) {
          record = &it3->second;
        }
      }
    }
    if (record != nullptr) {
      failures.push_back(TaskFailure{t.key, record->attempts, record->error});
    } else {
      unrecorded.push_back(t);
    }
  }

  if (options.steal && !unrecorded.empty()) {
    obs::ScopedSpan steal_span("merge_steal", "campaign");
    if (steal_span.active()) {
      steal_span.annotate("tasks",
                          static_cast<std::uint64_t>(unrecorded.size()));
    }
    TaskJournal journal(coordinator_journal_path(options.journal_dir));
    TaskSetResult run =
        execute_tasks(spec, unrecorded, options.workers, &reg, &journal);
    merged.tasks_stolen = unrecorded.size();
    for (std::size_t i = 0; i < unrecorded.size(); ++i) {
      const TaskExecution& out = run.outcomes[i];
      if (out.ok) values.emplace(unrecorded[i].key, out.value);
    }
    failures.insert(failures.end(), run.failures.begin(), run.failures.end());
  } else {
    for (const MeasurementTask& t : unrecorded) {
      merged.missing.push_back(t.key);
    }
  }

  {
    obs::ScopedSpan assemble_span("assemble_phase", "campaign");
    merged.result = assemble_campaign(
        spec, plan, [&](const TaskKey& key) -> std::optional<double> {
          const auto it = values.find(key);
          if (it != values.end()) return it->second;
          return std::nullopt;
        });
  }
  merged.result.failures = std::move(failures);
  std::sort(merged.result.failures.begin(), merged.result.failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.key < b.key;
            });

  auto count = [&reg](const char* name, std::size_t v) {
    reg.counter(name).add(static_cast<std::uint64_t>(v));
  };
  count("campaign.merge.shards", shards);
  count("campaign.merge.tasks_planned", merged.tasks_planned);
  count("campaign.merge.tasks_merged", merged.tasks_merged);
  count("campaign.merge.tasks_stolen", merged.tasks_stolen);
  count("campaign.merge.duplicates", merged.duplicates);
  count("campaign.merge.torn_tails", merged.torn_tails);
  count("campaign.merge.missing", merged.missing.size());
  count("campaign.merge.failed", merged.result.failures.size());
  count("campaign.studies", spec.studies.size());
  count("campaign.tasks_requested", plan.tasks_requested);
  count("campaign.tasks_planned", plan.tasks.size());
  count("campaign.tasks_deduplicated", plan.tasks_deduplicated);
  merged.result.metrics = CampaignMetrics::from_registry(reg);
  return merged;
}

}  // namespace kcoup::campaign

#include "campaign/planner.hpp"

#include <set>
#include <stdexcept>

namespace kcoup::campaign {

namespace {

TaskKey cell_key(const CampaignStudy& s, TaskKind kind, std::size_t index,
                 std::size_t length) {
  return TaskKey{s.application, s.config, s.ranks, kind, index, length};
}

/// Estimated execution cost in kernel invocations, mirroring what the
/// MeasurementHarness actually runs for each task kind.
double task_cost(const TaskKey& key, const StudyShape& shape,
                 const coupling::MeasurementOptions& m) {
  const double full_run = static_cast<double>(shape.prologue_size) +
                          static_cast<double>(shape.iterations) *
                              static_cast<double>(shape.loop_size) +
                          static_cast<double>(shape.epilogue_size);
  switch (key.kind) {
    case TaskKind::kChain:
      return static_cast<double>(key.length) *
             static_cast<double>(m.repetitions + m.warmup);
    case TaskKind::kActual:
      return full_run;
    case TaskKind::kPrologue:
      return static_cast<double>(key.index + 1) *
             static_cast<double>(m.repetitions);
    case TaskKind::kEpilogue:
      return static_cast<double>(m.epilogue_repetitions) *
             (full_run + static_cast<double>(key.index + 1));
  }
  return 1.0;
}

}  // namespace

CampaignPlan plan_campaign(const CampaignSpec& spec,
                           const coupling::CouplingDatabase* db) {
  std::set<std::size_t> lengths;
  for (std::size_t q : spec.chain_lengths) {
    if (!lengths.insert(q).second) {
      throw std::invalid_argument("plan_campaign: chain length " +
                                  std::to_string(q) + " given twice");
    }
  }
  CampaignPlan plan;
  plan.shapes.reserve(spec.studies.size());
  for (const CampaignStudy& s : spec.studies) {
    if (!s.factory) {
      throw std::invalid_argument("plan_campaign: study '" + s.application +
                                  "' has no factory");
    }
    const AppHandle handle = s.factory();
    const coupling::LoopApplication& app = handle.app();
    StudyShape shape;
    shape.loop_size = app.loop_size();
    shape.prologue_size = app.prologue.size();
    shape.epilogue_size = app.epilogue.size();
    shape.iterations = app.iterations;
    for (const coupling::Kernel* k : app.loop) {
      shape.kernel_names.push_back(k->name());
    }
    if (shape.loop_size == 0) {
      throw std::invalid_argument("plan_campaign: study '" + s.application +
                                  "' has an empty main loop");
    }
    for (std::size_t q : spec.chain_lengths) {
      if (q == 0 || q > shape.loop_size) {
        throw std::invalid_argument(
            "plan_campaign: chain length " + std::to_string(q) +
            " out of [1, " + std::to_string(shape.loop_size) + "] for study '" +
            s.application + "'");
      }
    }
    plan.shapes.push_back(std::move(shape));
  }

  // The naive baseline: one independent serial study per (cell, chain
  // length) pair, each re-measuring the isolated kernels, the actual run and
  // the prologue/epilogue.  With no chain lengths a study still performs its
  // non-chain measurements once.
  for (std::size_t s = 0; s < spec.studies.size(); ++s) {
    const StudyShape& shape = plan.shapes[s];
    const std::size_t base =
        shape.loop_size + 1 + shape.prologue_size + shape.epilogue_size;
    if (spec.chain_lengths.empty()) {
      plan.tasks_requested += base;
    } else {
      plan.tasks_requested +=
          spec.chain_lengths.size() * (base + shape.loop_size);
    }
  }

  std::set<TaskKey> planned;
  auto add = [&](std::size_t study, TaskKey key) {
    if (planned.insert(key).second) {
      const double cost = task_cost(key, plan.shapes[study], spec.measurement);
      plan.tasks.push_back(MeasurementTask{std::move(key), study, cost});
    }
  };

  for (std::size_t s = 0; s < spec.studies.size(); ++s) {
    const CampaignStudy& cell = spec.studies[s];
    const StudyShape& shape = plan.shapes[s];
    add(s, cell_key(cell, TaskKind::kActual, 0, 0));
    for (std::size_t i = 0; i < shape.prologue_size; ++i) {
      add(s, cell_key(cell, TaskKind::kPrologue, i, 0));
    }
    for (std::size_t i = 0; i < shape.epilogue_size; ++i) {
      add(s, cell_key(cell, TaskKind::kEpilogue, i, 0));
    }
    for (std::size_t k = 0; k < shape.loop_size; ++k) {
      add(s, cell_key(cell, TaskKind::kChain, k, 1));
    }
    for (std::size_t q : spec.chain_lengths) {
      for (std::size_t start = 0; start < shape.loop_size; ++start) {
        add(s, cell_key(cell, TaskKind::kChain, start, q));
      }
    }
  }

  // Chains the database already holds become cache entries, not tasks.  The
  // cached value supplies P_S only; isolated sums are always assembled from
  // this campaign's fresh isolated means, exactly like measure_chains().
  if (db != nullptr) {
    std::vector<MeasurementTask> remaining;
    remaining.reserve(plan.tasks.size());
    for (MeasurementTask& t : plan.tasks) {
      if (t.key.kind == TaskKind::kChain) {
        const auto hit = db->find(coupling::CouplingKey{
            t.key.application, t.key.config, t.key.ranks, t.key.length,
            t.key.index});
        if (hit.has_value()) {
          plan.cached.emplace(t.key, hit->chain_time);
          ++plan.cache_hits;
          continue;
        }
      }
      remaining.push_back(std::move(t));
    }
    plan.tasks = std::move(remaining);
  }

  plan.tasks_deduplicated =
      plan.tasks_requested - plan.tasks.size() - plan.cache_hits;
  return plan;
}

std::size_t apply_journal(CampaignPlan& plan,
                          const std::map<TaskKey, double>& completed) {
  if (completed.empty()) return 0;
  std::vector<MeasurementTask> remaining;
  remaining.reserve(plan.tasks.size());
  std::size_t hits = 0;
  for (MeasurementTask& t : plan.tasks) {
    const auto it = completed.find(t.key);
    if (it != completed.end()) {
      // insert_or_assign: a journaled value wins over a database cache hit —
      // it is this campaign's own prior measurement of exactly this key.
      plan.cached.insert_or_assign(t.key, it->second);
      ++hits;
      continue;
    }
    remaining.push_back(std::move(t));
  }
  plan.tasks = std::move(remaining);
  plan.journal_hits += hits;
  return hits;
}

}  // namespace kcoup::campaign

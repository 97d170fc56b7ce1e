#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>

#include "campaign/journal.hpp"
#include "coupling/analysis.hpp"
#include "obs/trace.hpp"
#include "trace/stats.hpp"

namespace kcoup::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct TaskOutcome {
  double value = 0.0;
  int attempts = 1;
  double measure_s = 0.0;  ///< wall-clock of this task, acquisition included
  bool ok = false;         ///< false until the task completes successfully
  std::string error;       ///< final attempt's message when !ok
};

/// Failed tasks, collected across workers.  Failures also tick the live
/// "campaign.tasks_failed" counter so a registry observer sees them as they
/// happen, not only in the end-of-run metrics.
struct FailureSink {
  std::mutex mutex;
  std::vector<TaskFailure> failures;
  obs::Counter* failed_counter = nullptr;

  void record(const TaskKey& key, int attempts, const char* what) {
    if (failed_counter != nullptr) failed_counter->add(1);
    std::lock_guard<std::mutex> lock(mutex);
    failures.push_back(TaskFailure{key, attempts, what});
  }
};

/// The application instance one unit's tasks share.  A unit runs on one
/// thread, so acquisition needs no locking; reuse is sound because every
/// harness measurement starts with app.reset().
struct UnitHandle {
  std::optional<AppHandle> handle;
  std::size_t created = 0;
  std::size_t reused = 0;

  const AppHandle& acquire(const CampaignSpec& spec,
                           const MeasurementTask& task) {
    if (handle.has_value()) {
      ++reused;
      return *handle;
    }
    // The factory may throw (and with fault injection, is expected to):
    // count the handle only once it actually exists.
    handle.emplace(spec.studies[task.study].factory());
    ++created;
    return *handle;
  }
};

/// Perform one atomic measurement, retrying when the repetition samples are
/// too noisy.  Retries *merge* their samples into the running statistics —
/// earlier repetitions are evidence, not waste, and a merged estimate cannot
/// oscillate the way keep-only-the-last-attempt did.  `attempt_budget` is
/// what remains of RetryPolicy::max_attempts after any exception-consumed
/// attempts; with the default (infinite) threshold the first measurement is
/// always kept, which is what makes the executor bit-identical to the
/// serial path.
TaskOutcome measure_task(const CampaignSpec& spec, const MeasurementTask& task,
                         const AppHandle& handle,
                         const FaultSimulator* faults, int attempt_budget) {
  const coupling::MeasurementHarness harness(&handle.app(), spec.measurement);
  if (faults != nullptr && faults->measure_throws(task.key)) {
    throw FaultInjected(FaultKind::kMeasureThrow, task.key);
  }

  TaskOutcome out;
  if (task.key.kind == TaskKind::kActual) {
    obs::ScopedSpan span("measure", "campaign");
    out.value = harness.actual_total();  // one full run; nothing to retry
    return out;
  }

  auto sample = [&]() -> trace::RunningStats {
    switch (task.key.kind) {
      case TaskKind::kChain:
        return harness.chain_stats(task.key.index, task.key.length);
      case TaskKind::kPrologue:
        return harness.prologue_stats(task.key.index);
      case TaskKind::kEpilogue:
        return harness.epilogue_stats(task.key.index);
      case TaskKind::kActual: break;
    }
    throw std::logic_error("measure_task: unreachable kind");
  };

  trace::RunningStats stats;
  {
    obs::ScopedSpan span("measure", "campaign");
    stats = sample();
  }
  if (faults != nullptr) {
    // An injected outlier: one extra sample at `factor` times the current
    // mean widens the spread enough to trip a configured retry threshold,
    // deterministically, on the first attempt only.
    if (const auto factor = faults->noise_spike(task.key)) {
      stats.add(stats.mean() * *factor);
    }
  }
  const RetryPolicy& retry = spec.retry;
  while (out.attempts < attempt_budget && stats.count() > 1 &&
         stats.mean() > 0.0 &&
         stats.stddev() / stats.mean() > retry.max_relative_stddev) {
    obs::ScopedSpan span("retry", "campaign");
    span.annotate("attempt", static_cast<std::uint64_t>(out.attempts + 1));
    stats.merge(sample());
    ++out.attempts;
  }
  out.value = stats.mean();
  return out;
}

/// One measurement attempt: acquire the unit's application instance (built
/// on first use) and measure.  Construction faults fire here, before the
/// unit's instance is consulted, so an injected construction throw does not
/// depend on whether an earlier task of the unit built it.
TaskOutcome run_task_once(const CampaignSpec& spec,
                          const MeasurementTask& task, UnitHandle& unit,
                          const FaultSimulator* faults, int attempt_budget) {
  if (faults != nullptr && faults->construct_throws(task.key)) {
    throw FaultInjected(FaultKind::kConstructThrow, task.key);
  }
  return measure_task(spec, task, unit.acquire(spec, task), faults,
                      attempt_budget);
}

/// Run one task end to end with failure isolation: exceptions from the
/// factory or the measurement consume the same attempt budget noisy samples
/// do; once it is exhausted the failure is recorded in `sink` and the
/// campaign moves on.  Only CampaignAborted (an injected crash) escapes.
TaskOutcome execute_task(const CampaignSpec& spec, const MeasurementTask& task,
                         UnitHandle& unit, FaultSimulator* faults,
                         FailureSink& sink) {
  obs::ScopedSpan span("task", "campaign");
  if (span.active()) span.annotate("key", to_string(task.key));
  const Clock::time_point t0 = Clock::now();
  if (faults != nullptr) faults->maybe_abort();
  TaskOutcome out;
  int attempts_spent = 0;
  bool fault_injected = false;
  const int budget = std::max(1, spec.retry.max_attempts);
  for (;;) {
    try {
      out = run_task_once(spec, task, unit, faults, budget - attempts_spent);
      out.attempts += attempts_spent;
      out.ok = true;
      break;
    } catch (const CampaignAborted&) {
      throw;
    } catch (const std::exception& e) {
      if (dynamic_cast<const FaultInjected*>(&e) != nullptr) {
        fault_injected = true;
      }
      ++attempts_spent;
      if (attempts_spent >= budget) {
        sink.record(task.key, attempts_spent, e.what());
        out = TaskOutcome{};
        out.attempts = attempts_spent;
        out.error = e.what();
        if (out.error.empty()) out.error = "task failed";
        break;
      }
    }
  }
  out.measure_s = seconds_since(t0);
  if (span.active()) {
    span.annotate("attempts", static_cast<std::uint64_t>(out.attempts));
    span.annotate("ok", out.ok);
    if (fault_injected) span.annotate("fault", true);
  }
  return out;
}

/// What the workers claim: the task positions grouped by study cell, each
/// cell's tasks in plan order, and the units over them, dearest summed
/// planner cost first, so an expensive cell cannot serialize the tail.  A
/// unit is a whole cell; with fewer cells than workers, each cell splits
/// into ceil(workers / cells) contiguous slices so that no worker idles.
struct Schedule {
  struct Unit {
    std::size_t begin = 0;  ///< [begin, end) of `order`
    std::size_t end = 0;
    double cost = 0.0;
  };
  std::vector<std::size_t> order;
  std::vector<Unit> units;
};

Schedule schedule(const std::vector<MeasurementTask>& tasks,
                  std::size_t workers) {
  // A cell is what one instance serves: the (application, config, ranks)
  // triple.  Ids follow first appearance; planned tasks come cell by
  // cell, so the map is only consulted where the cell changes.
  using Cell = std::tuple<std::string_view, std::string_view, int>;
  auto cell = [&tasks](std::size_t i) {
    const TaskKey& k = tasks[i].key;
    return Cell{k.application, k.config, k.ranks};
  };
  std::map<Cell, std::size_t> ids;
  std::vector<std::size_t> id(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    id[i] = i > 0 && cell(i) == cell(i - 1)
                ? id[i - 1]
                : ids.try_emplace(cell(i), ids.size()).first->second;
  }
  Schedule out;
  out.order.resize(tasks.size());
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&id](std::size_t a, std::size_t b) { return id[a] < id[b]; });

  const std::size_t slices =
      ids.empty() ? 1 : (workers + ids.size() - 1) / ids.size();
  for (std::size_t begin = 0, end = 0; begin < out.order.size(); begin = end) {
    while (end < out.order.size() && id[out.order[end]] == id[out.order[begin]]) {
      ++end;
    }
    for (std::size_t s = 0; s < slices; ++s) {
      Schedule::Unit unit{begin + (end - begin) * s / slices,
                          begin + (end - begin) * (s + 1) / slices};
      for (std::size_t i = unit.begin; i < unit.end; ++i) {
        unit.cost += tasks[out.order[i]].cost;
      }
      if (unit.begin < unit.end) out.units.push_back(unit);
    }
  }
  std::sort(out.units.begin(), out.units.end(),
            [](const Schedule::Unit& a, const Schedule::Unit& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.begin < b.begin;
            });
  return out;
}

}  // namespace

TaskSetResult execute_tasks(const CampaignSpec& spec,
                            const std::vector<MeasurementTask>& tasks,
                            std::size_t workers, obs::MetricsRegistry* registry,
                            TaskJournal* journal) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, std::max<std::size_t>(1, tasks.size()));

  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg = registry != nullptr ? *registry : local_registry;
  obs::Counter& c_executed = reg.counter("campaign.tasks_executed");
  obs::Counter& c_retried = reg.counter("campaign.tasks_retried");
  obs::Histogram& h_task = reg.histogram("campaign.task_seconds");
  // Live per-task bookkeeping: counters tick as tasks finish so an external
  // registry sees progress mid-run; the final CampaignMetrics is read back
  // out of the registry by the caller and matches the old post-hoc
  // accounting exactly (retried = sum over tasks of attempts - 1).
  auto note_done = [&](const TaskOutcome& out) {
    c_executed.add(1);
    c_retried.add(static_cast<std::uint64_t>(out.attempts - 1));
    h_task.record(out.measure_s);
  };

  FaultSimulator fault_sim(spec.faults);
  FaultSimulator* faults = spec.faults.enabled() ? &fault_sim : nullptr;
  FailureSink sink;
  sink.failed_counter = &reg.counter("campaign.tasks_failed");
  auto journal_done = [journal](const TaskKey& key, const TaskOutcome& out) {
    if (journal == nullptr) return;
    if (out.ok) {
      journal->append(JournalEntry{key, out.value, out.attempts, ""});
    } else {
      // Failure records let a merge coordinator account for the hole; the
      // resume loader skips them, so the task is retried on the next run,
      // exactly as when failures were not journaled.
      journal->append(JournalEntry{key, 0.0, out.attempts, out.error});
    }
  };

  // One claim loop for every worker count: the calling thread is worker 0
  // and `threads - 1` helpers join it.  Each worker takes the next unit off
  // one cursor and runs its tasks on the unit's own instance, so instances
  // are never shared between threads.  Every task writes only its own
  // outcome slot, read after the helpers join.
  const Schedule plan = schedule(tasks, workers);
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(workers, plan.units.size()));
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::atomic<std::size_t> cursor{0};
  // Set by the first escaping error (an injected campaign abort, or a truly
  // unexpected one): every worker stops before its next task, as the
  // serial loop would.
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<std::size_t> created{0};
  std::atomic<std::size_t> reused{0};
  auto work = [&] {
    try {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
        if (u >= plan.units.size()) return;
        // Released when the unit ends, error or not.
        UnitHandle handle;
        for (std::size_t i = plan.units[u].begin;
             i < plan.units[u].end && !stop.load(std::memory_order_relaxed);
             ++i) {
          const MeasurementTask& t = tasks[plan.order[i]];
          TaskOutcome& out = outcomes[plan.order[i]];
          out = execute_task(spec, t, handle, faults, sink);
          journal_done(t.key, out);
          note_done(out);
        }
        created += handle.created;
        reused += handle.reused;
      }
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) helpers.emplace_back(work);
    work();
  }  // helpers join here
  if (first_error) std::rethrow_exception(first_error);

  TaskSetResult result;
  result.outcomes.reserve(tasks.size());
  for (const TaskOutcome& out : outcomes) {
    result.outcomes.push_back(
        TaskExecution{out.value, out.attempts, out.measure_s, out.ok});
  }
  result.handles_created = created.load();
  result.handles_reused = reused.load();
  result.failures = std::move(sink.failures);
  return result;
}

CampaignResult assemble_campaign(
    const CampaignSpec& spec, const CampaignPlan& plan,
    const std::function<std::optional<double>(const TaskKey&)>& value_of) {
  if (plan.shapes.size() != spec.studies.size()) {
    throw std::invalid_argument("assemble_campaign: plan does not match spec");
  }
  CampaignResult result;
  result.studies.reserve(spec.studies.size());
  result.missing.resize(spec.studies.size());
  for (std::size_t s = 0; s < spec.studies.size(); ++s) {
    const CampaignStudy& cell = spec.studies[s];
    const StudyShape& shape = plan.shapes[s];
    // One key per study, its cell labels copied once; each lookup sets only
    // the measurement fields.
    TaskKey task{cell.application, cell.config, cell.ranks};
    auto key = [&task](TaskKind kind, std::size_t index,
                       std::size_t length) -> const TaskKey& {
      task.kind = kind;
      task.index = index;
      task.length = length;
      return task;
    };
    auto resolve = [&](const TaskKey& want) -> double {
      if (const auto v = value_of(want)) return *v;
      result.missing[s].push_back(want);
      return std::numeric_limits<double>::quiet_NaN();
    };

    coupling::StudyResult r;
    r.actual_s = resolve(key(TaskKind::kActual, 0, 0));
    r.isolated_means.reserve(shape.loop_size);
    for (std::size_t k = 0; k < shape.loop_size; ++k) {
      r.isolated_means.push_back(resolve(key(TaskKind::kChain, k, 1)));
    }
    for (std::size_t i = 0; i < shape.prologue_size; ++i) {
      r.prologue_s += resolve(key(TaskKind::kPrologue, i, 0));
    }
    for (std::size_t i = 0; i < shape.epilogue_size; ++i) {
      r.epilogue_s += resolve(key(TaskKind::kEpilogue, i, 0));
    }

    coupling::PredictionInputs inputs;
    inputs.isolated_means = r.isolated_means;
    inputs.prologue_s = r.prologue_s;
    inputs.epilogue_s = r.epilogue_s;
    inputs.iterations = shape.iterations;

    r.summation_s = coupling::summation_prediction(inputs);
    r.summation_error = trace::relative_error(r.summation_s, r.actual_s);

    for (std::size_t q : spec.chain_lengths) {
      coupling::ChainLengthResult cl;
      cl.length = q;
      cl.chains.reserve(shape.loop_size);
      // Same assembly as measure_chains(): members, label and isolated_sum
      // accumulate in chain order, so the floating-point results agree
      // exactly with the serial path.
      for (std::size_t start = 0; start < shape.loop_size; ++start) {
        coupling::ChainCoupling c;
        c.start = start;
        c.length = q;
        c.members.reserve(q);
        std::size_t label_size = 2 * (q - 1);
        for (std::size_t i = 0; i < q; ++i) {
          label_size +=
              shape.kernel_names[(start + i) % shape.loop_size].size();
        }
        c.label.reserve(label_size);
        for (std::size_t i = 0; i < q; ++i) {
          const std::size_t k = (start + i) % shape.loop_size;
          c.members.push_back(k);
          c.isolated_sum += r.isolated_means[k];
          if (!c.label.empty()) c.label += ", ";
          c.label += shape.kernel_names[k];
        }
        c.chain_time = resolve(key(TaskKind::kChain, start, q));
        cl.chains.push_back(std::move(c));
      }
      cl.coefficients = coupling::coupling_coefficients(shape.loop_size,
                                                        cl.chains);
      cl.prediction_s = coupling::coupling_prediction(inputs, cl.chains);
      cl.relative_error = trace::relative_error(cl.prediction_s, r.actual_s);
      r.by_length.push_back(std::move(cl));
    }
    result.studies.push_back(std::move(r));
  }
  return result;
}

CampaignResult execute_plan(const CampaignSpec& spec, const CampaignPlan& plan,
                            std::size_t workers, obs::MetricsRegistry* registry) {
  const Clock::time_point wall0 = Clock::now();
  if (plan.shapes.size() != spec.studies.size()) {
    throw std::invalid_argument("execute_plan: plan does not match spec");
  }
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, std::max<std::size_t>(1, plan.tasks.size()));

  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg = registry != nullptr ? *registry : local_registry;
  std::unique_ptr<TaskJournal> journal;
  if (!spec.journal_path.empty()) {
    journal = std::make_unique<TaskJournal>(spec.journal_path);
  }

  const Clock::time_point measure0 = Clock::now();
  TaskSetResult run;
  {
    obs::ScopedSpan phase("measure_phase", "campaign");
    run = execute_tasks(spec, plan.tasks, workers, &reg, journal.get());
  }
  const double measure_s = seconds_since(measure0);

  const Clock::time_point assemble0 = Clock::now();
  obs::ScopedSpan assemble_span("assemble_phase", "campaign");
  // Each executed key's outcome sits at its plan position.
  const TaskIndex position(plan.tasks);
  // nullopt == the task ran and failed; its values become explicit missing
  // markers.  A key absent from both stores is a plan inconsistency.
  auto value_of = [&](const TaskKey& key) -> std::optional<double> {
    if (const std::size_t i = position.find(key); i != TaskIndex::npos) {
      const TaskExecution& out = run.outcomes[i];
      if (out.ok) return out.value;
      return std::nullopt;
    }
    const auto cached = plan.cached.find(key);
    if (cached != plan.cached.end()) return cached->second;
    throw std::logic_error("execute_plan: no result for " + to_string(key));
  };
  CampaignResult result = assemble_campaign(spec, plan, value_of);
  const double assemble_s = seconds_since(assemble0);
  assemble_span.finish();

  result.failures = std::move(run.failures);
  std::sort(result.failures.begin(), result.failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.key < b.key;
            });

  // Plan-shaped counters are only known once, here; task progress counters
  // (executed / retried / failed) already ticked live inside
  // execute_tasks().  The gauges reuse the exact post-hoc RunningStats
  // accounting, so the metrics read back below are bit-identical to the
  // pre-registry struct fill.
  auto count = [&reg](const char* name, std::size_t v) {
    reg.counter(name).add(static_cast<std::uint64_t>(v));
  };
  count("campaign.studies", spec.studies.size());
  count("campaign.workers", workers);
  count("campaign.tasks_requested", plan.tasks_requested);
  count("campaign.tasks_planned", plan.tasks.size());
  count("campaign.tasks_deduplicated", plan.tasks_deduplicated);
  count("campaign.cache_hits", plan.cache_hits);
  count("campaign.journal_hits", plan.journal_hits);
  count("campaign.handles_created", run.handles_created);
  count("campaign.handles_reused", run.handles_reused);
  trace::RunningStats task_times;
  for (const TaskExecution& o : run.outcomes) task_times.add(o.seconds);
  if (task_times.count() > 0) {
    reg.gauge("campaign.task_min_s").set(task_times.min());
    reg.gauge("campaign.task_max_s").set(task_times.max());
    reg.gauge("campaign.task_mean_s").set(task_times.mean());
  }
  reg.gauge("campaign.measure_s").set(measure_s);
  reg.gauge("campaign.assemble_s").set(assemble_s);
  reg.gauge("campaign.wall_s").set(seconds_since(wall0));
  result.metrics = CampaignMetrics::from_registry(reg);
  return result;
}

CampaignResult run_campaign(const CampaignSpec& spec, std::size_t workers,
                            coupling::CouplingDatabase* db,
                            obs::MetricsRegistry* registry) {
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg = registry != nullptr ? *registry : local_registry;
  const Clock::time_point wall0 = Clock::now();
  const Clock::time_point plan0 = Clock::now();
  CampaignPlan plan;
  {
    obs::ScopedSpan span("plan", "campaign");
    plan = plan_campaign(spec, db);
    if (!spec.journal_path.empty()) {
      // Replay whatever a previous (possibly killed) run already measured.
      std::ifstream in(spec.journal_path);
      if (in) (void)apply_journal(plan, load_journal(in));
    }
    if (span.active()) {
      span.annotate("tasks", static_cast<std::uint64_t>(plan.tasks.size()));
      span.annotate("cache_hits",
                    static_cast<std::uint64_t>(plan.cache_hits));
      span.annotate("journal_hits",
                    static_cast<std::uint64_t>(plan.journal_hits));
    }
  }
  const double plan_s = seconds_since(plan0);

  CampaignResult result = execute_plan(spec, plan, workers, &reg);
  result.metrics.plan_s = plan_s;
  result.metrics.wall_s = seconds_since(wall0);
  // Keep the registry canonical: mirror the outer timings over the values
  // execute_plan recorded.
  reg.gauge("campaign.plan_s").set(result.metrics.plan_s);
  reg.gauge("campaign.wall_s").set(result.metrics.wall_s);

  if (db != nullptr) record_campaign(spec, result, *db);
  return result;
}

void record_campaign(const CampaignSpec& spec, const CampaignResult& result,
                     coupling::CouplingDatabase& db) {
  for (std::size_t s = 0; s < spec.studies.size(); ++s) {
    const CampaignStudy& cell = spec.studies[s];
    for (const coupling::ChainLengthResult& cl : result.studies[s].by_length) {
      for (const coupling::ChainCoupling& c : cl.chains) {
        // record() rejects degenerate values; skip them rather than lose
        // the rest of the campaign's measurements.  NaN missing markers
        // from failed tasks are skipped the same way.
        if (!(std::isfinite(c.chain_time) && c.chain_time > 0.0 &&
              std::isfinite(c.isolated_sum) && c.isolated_sum > 0.0)) {
          continue;
        }
        coupling::CouplingRecord rec;
        rec.key = coupling::CouplingKey{cell.application, cell.config,
                                        cell.ranks, c.length, c.start};
        rec.chain_time = c.chain_time;
        rec.isolated_sum = c.isolated_sum;
        db.record(std::move(rec));
      }
    }
  }
}

}  // namespace kcoup::campaign

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/task_key.hpp"

namespace kcoup::campaign {

struct MeasurementTask;  // planner.hpp

/// What a fault injection does to its target task.
enum class FaultKind {
  kConstructThrow,  ///< acquiring the application instance throws
  kMeasureThrow,    ///< the measurement itself throws
  kNoiseSpike,      ///< one outlier sample is folded into the statistics
};

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kConstructThrow: return "construct-throw";
    case FaultKind::kMeasureThrow: return "measure-throw";
    case FaultKind::kNoiseSpike: return "noise-spike";
  }
  return "?";
}

/// One explicitly targeted fault.
struct FaultInjection {
  TaskKey key;
  FaultKind kind = FaultKind::kMeasureThrow;
};

/// A deterministic fault schedule for a campaign.  Seeded selection is a
/// pure function of (seed, TaskKey): each rate independently marks the
/// tasks whose per-key hash falls below it, so the same seed faults the
/// same cells regardless of worker count or claim order —
/// every failure is reproducible under `kcoup campaign --fault-seed`.
/// Explicit `injections` target planner-chosen keys exactly.
struct FaultPlan {
  std::uint64_t seed = 0;
  double construct_throw_rate = 0.0;  ///< fraction of tasks whose acquisition throws
  double measure_throw_rate = 0.0;    ///< fraction of tasks whose measurement throws
  double noise_spike_rate = 0.0;      ///< fraction of tasks given an outlier sample
  double noise_factor = 8.0;          ///< spike magnitude, x the current sample mean
  /// When > 0, the campaign aborts (CampaignAborted) once this many tasks
  /// have started — a deterministic stand-in for a mid-sweep crash, used to
  /// exercise journal/resume.
  std::size_t abort_after = 0;
  std::vector<FaultInjection> injections;

  [[nodiscard]] bool enabled() const {
    return construct_throw_rate > 0.0 || measure_throw_rate > 0.0 ||
           noise_spike_rate > 0.0 || abort_after > 0 || !injections.empty();
  }
};

/// Thrown by an injected construction/measurement fault.  Distinguishable
/// from organic std::runtime_errors so tests can assert provenance.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(FaultKind kind, const TaskKey& key)
      : std::runtime_error(std::string("injected ") + to_string(kind) +
                           " fault at " + to_string(key)) {}
};

/// Thrown when FaultPlan::abort_after trips.  The executor does NOT isolate
/// this — it propagates and kills the campaign, like a real crash, leaving
/// only the journal behind.
class CampaignAborted : public std::runtime_error {
 public:
  explicit CampaignAborted(std::size_t after)
      : std::runtime_error("injected campaign abort after " +
                           std::to_string(after) + " tasks") {}
};

/// Evaluates a FaultPlan.  All per-key decisions are const and
/// deterministic; only the abort counter is mutable state.
class FaultSimulator {
 public:
  explicit FaultSimulator(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] bool construct_throws(const TaskKey& key) const;
  [[nodiscard]] bool measure_throws(const TaskKey& key) const;
  /// The spike factor to apply to this task's samples, if any.
  [[nodiscard]] std::optional<double> noise_spike(const TaskKey& key) const;
  /// True when either throw kind targets the key (the task will exhaust its
  /// retry budget and fail).
  [[nodiscard]] bool will_fail(const TaskKey& key) const {
    return construct_throws(key) || measure_throws(key);
  }

  /// Throws CampaignAborted once `abort_after` tasks have started.  Called
  /// by the executor at the start of every task.
  void maybe_abort();

  /// The subset of `tasks` this plan dooms (construct or measure throw), in
  /// key order — what a fault-matrix test should expect as failures.
  [[nodiscard]] std::vector<TaskKey> faulted_keys(
      const std::vector<MeasurementTask>& tasks) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] bool rolls_under(const TaskKey& key, std::uint64_t salt,
                                 double rate) const;
  [[nodiscard]] bool has_injection(const TaskKey& key, FaultKind kind) const;

  FaultPlan plan_;
  std::atomic<std::size_t> started_{0};
};

}  // namespace kcoup::campaign

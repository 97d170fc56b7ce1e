#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "machine/cache_model.hpp"
#include "machine/config.hpp"
#include "machine/work_profile.hpp"

namespace kcoup::machine {

/// Per-invocation cost decomposition produced by Machine::execute.
struct CostBreakdown {
  double compute_s = 0.0;
  /// Seconds of data traffic served by each cache level (L1 first).
  PerLevel<double> cache_s;
  double memory_s = 0.0;
  double comm_s = 0.0;
  double sync_s = 0.0;

  [[nodiscard]] double total() const {
    double t = compute_s + memory_s + comm_s + sync_s;
    for (double c : cache_s) t += c;
    return t;
  }

  CostBreakdown& operator+=(const CostBreakdown& o);
};

/// Deterministic single-rank machine pricing engine.
///
/// A Machine prices WorkProfiles (structural kernel descriptions) into
/// seconds, maintaining cache residency and synchronisation-skew state across
/// invocations so that *the order in which kernels run changes their cost* —
/// which is exactly the phenomenon the coupling parameter measures.
///
/// Cost components:
///  * compute  — flops / effective flop rate.
///  * memory   — region traffic priced by the reuse-distance CacheModel.
///  * comm     — alpha-beta messages with a log2(P) contention factor on
///               bandwidth: count * (alpha + bytes * beta * (1 + kappa log2 P)).
///  * sync     — barrier latency plus the *skew-decorrelation* penalty: a
///               synchronising kernel k must absorb whatever load-imbalance
///               pattern the immediately preceding kernel j established.  We model pattern similarity with a
///               deterministic per-pair correlation corr(j,k) in [0,1]
///               (corr(k,k)=1, so a kernel looping in isolation pays nothing:
///               its skew persists pipeline-fashion).  The penalty scales
///               with the latency-bound communication of the invocation and
///               with log2(P), following the paper's observation that "the
///               number of messages and load balancing issues are affecting
///               the coupling more than the message sizes and cache effects"
///               (section 4.1.1).
///
/// A Machine owns all of its state, so it may be copied or moved: the copy
/// prices exactly like the original would from the same history.
class Machine {
 public:
  /// Throws std::length_error when `config` declares more than
  /// kMaxCacheLevels cache levels.
  explicit Machine(MachineConfig config);

  [[nodiscard]] const MachineConfig& config() const { return config_; }

  /// Register an application array with the underlying cache model.
  RegionId register_region(std::string name, std::size_t bytes) {
    return cache_.register_region(std::move(name), bytes);
  }

  /// Price one kernel invocation and update machine state.
  CostBreakdown execute(const WorkProfile& profile);

  /// Price without the breakdown.
  double execute_seconds(const WorkProfile& profile) {
    return execute(profile).total();
  }

  /// Cold caches + cleared skew history.  Regions stay registered.
  void reset_state();

  /// Everything execute() reads besides the config and the registered
  /// regions.  execute() is a pure function of (config, State, profile).
  struct State {
    CacheModel::State cache;
    KernelId prev_kernel = kInvalidKernel;
  };
  /// Copy the state into `into`; allocates nothing once `into` has held a
  /// snapshot of this machine.
  void save_state(State& into) const {
    cache_.save_state(into.cache);
    into.prev_kernel = prev_kernel_;
  }
  /// True when the machine is in exactly the state `s` holds, so it would
  /// price every profile exactly as it did when `s` was saved.
  [[nodiscard]] bool state_equals(const State& s) const {
    return prev_kernel_ == s.prev_kernel && cache_.state_equals(s.cache);
  }

  [[nodiscard]] const CacheModel& cache() const { return cache_; }

  /// Deterministic skew-pattern correlation between two kernels, in [0,1].
  /// Exposed for tests.  Symmetric; corr(k,k) == 1.
  [[nodiscard]] static double skew_correlation(KernelId a, KernelId b);

  /// Deterministic uniform hash of `key` into [0, 1).  Used wherever the
  /// simulation needs reproducible pseudo-randomness (per-rank compute
  /// jitter in the timed parallel path, skew patterns here).
  [[nodiscard]] static double unit_hash(std::uint64_t key);

 private:
  MachineConfig config_;
  CacheModel cache_;
  KernelId prev_kernel_ = kInvalidKernel;
};

}  // namespace kcoup::machine

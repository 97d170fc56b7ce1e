#pragma once

// The benchmark's timing and reporting vocabulary: wall and CPU clocks,
// percentiles, a span-plus-stopwatch around each timed call into a product
// layer, and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Bumped whenever a metric is added, removed or redefined.
inline constexpr int kSchemaVersion = 1;

[[nodiscard]] double seconds_since(Clock::time_point t0);
/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_s();
/// ru_maxrss of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Restrict the calling thread to `cpus` (threads it creates afterwards
/// inherit the set).  Returns false when the kernel refuses.
bool pin_current_thread(const std::vector<int>& cpus);

/// Switch the calling thread to SCHED_BATCH (on = true) or back to
/// SCHED_OTHER; threads it creates afterwards inherit the policy.  A batch
/// thread never preempts the running thread when it wakes.
bool batch_schedule_current_thread(bool on);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// One timed call into a product layer.  Records a span (category
/// "perfbench") annotated `id_key` = `id` when the tracer is enabled — "op"
/// for a workload operation, so every span of one operation shares it —
/// and adds the elapsed wall time to `*sink_s`, so the same code path yields
/// the trace and the per-layer sums.
class Timed {
 public:
  Timed(const char* name, std::uint64_t id, double* sink_s,
        const char* id_key = "op");
  /// A span only, annotated with a wire trace id (the id the server
  /// annotates on its own span for the same request).
  Timed(const char* name, std::string_view trace_id);
  ~Timed();

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  kcoup::obs::ScopedSpan span_;
  Clock::time_point t0_;
  double* sink_s_;
};

/// Named metrics in insertion order, rendered as the result line.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// What one workload run produced.  `problems` lists every failed check in
/// words; the run is correct only when it is empty and no operation failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Report metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  [[nodiscard]] bool correct() const {
    return problems.empty() && failed == 0 && attempted > 0;
  }
};

}  // namespace perfbench

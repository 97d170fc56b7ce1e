#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kcoup::serve {

/// Fixed-capacity log of the K slowest requests plus a ring of the most
/// recent failed requests — the "what just went wrong / what is slow"
/// answer the cumulative counters cannot give.
///
/// The hot path is the admission check, not the insert: record() first
/// compares against an atomic latency threshold (the current K-th slowest)
/// and returns without taking the lock for the overwhelmingly common
/// fast-and-ok request.  Only admissions (a failed request, or a latency
/// above the floor) pay the mutex, and those are rare by construction.
/// Entry strings allocate only on admission, so the steady-state serve path
/// stays allocation-free.
class SlowLog {
 public:
  struct Entry {
    double latency_s = 0.0;
    std::uint64_t seq = 0;      ///< admission order, process-monotone
    std::size_t shard = 0;      ///< event-loop shard that served it
    bool ok = true;             ///< false: request failed (always logged)
    std::string op;             ///< "predict" | "batch" | "stats" | ...
    std::string source;         ///< fallback tier of the first answer, or ""
    std::string trace_id;       ///< request's trace context, or ""
    std::string request;        ///< truncated request JSON
  };

  /// `slow_capacity`: how many slowest-ok requests to keep;
  /// `failed_capacity`: ring size for failed requests.
  explicit SlowLog(std::size_t slow_capacity = 32,
                   std::size_t failed_capacity = 64);

  /// Record one finished request (any thread).  Failed entries always
  /// enter the failed ring; ok entries enter the slow set only when their
  /// latency beats the current K-th slowest.
  void record(Entry entry);

  /// Cheap pre-check mirroring record()'s fast path, so callers can skip
  /// building an Entry at all (its strings allocate) for requests that
  /// record() would drop anyway — the steady-state serve path stays
  /// allocation-free.
  [[nodiscard]] bool would_admit(bool ok, double latency_s) const {
    return !ok || latency_s > threshold_.load(std::memory_order_relaxed);
  }

  /// {"ok":true,"slowest":[...],"failed":[...]} — slowest sorted by
  /// latency descending, failed in admission order (oldest first).
  [[nodiscard]] std::string to_json() const;

  /// Truncate a request payload for storage (keeps the JSON readable
  /// without keeping whole batch bodies alive).
  [[nodiscard]] static std::string truncate_request(std::string_view payload,
                                                    std::size_t max_bytes = 120);

 private:
  const std::size_t slow_capacity_;
  const std::size_t failed_capacity_;
  /// Admission floor: the smallest latency in the (full) slow set; ok
  /// requests below it skip the lock entirely.
  std::atomic<double> threshold_{0.0};
  std::atomic<std::uint64_t> seq_{0};

  mutable std::mutex mutex_;
  std::vector<Entry> slow_;    ///< unordered; smallest found on eviction
  std::vector<Entry> failed_;  ///< ring; next_failed_ is the write index
  std::size_t next_failed_ = 0;
  std::uint64_t failed_total_ = 0;
};

}  // namespace kcoup::serve

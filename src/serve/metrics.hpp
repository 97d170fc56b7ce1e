#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "report/table.hpp"

namespace kcoup::serve {

/// A point-in-time aggregate of everything the server counts: connection
/// and request volume, refusals by cause, the query engine's cell-memo
/// cache, snapshot reload activity, and request-latency quantiles from the
/// merged per-worker histograms.  Reporters mirror CampaignMetrics: a
/// two-column table for humans, one CSV header+row, one JSONL record; all
/// of them, and the JSONL reader, walk one table of the fields.
struct ServeMetrics {
  std::uint64_t workers = 0;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;         ///< well-formed frames dispatched
  std::uint64_t predictions = 0;      ///< individual predictions answered
  std::uint64_t errors = 0;           ///< ok=false predictions + bad requests
  std::uint64_t rejected_overload = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t oversized_frames = 0;

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_size = 0;

  std::uint64_t snapshot_reloads = 0;
  std::uint64_t snapshot_reload_failures = 0;
  std::uint64_t snapshot_version = 0;
  std::uint64_t db_records = 0;

  std::uint64_t latency_count = 0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_mean_s = 0.0;
  double latency_max_s = 0.0;

  /// Seconds since Server::start(); 0 before the server starts.  Appended
  /// after the latency fields in every renderer so pre-existing consumers
  /// keep their column/key positions.
  double uptime_s = 0.0;

  [[nodiscard]] report::Table to_table() const;
  /// Header line + one data row.
  [[nodiscard]] std::string to_csv() const;
  /// One self-contained JSON object (JSONL record).
  [[nodiscard]] std::string to_jsonl() const;
  /// to_jsonl()'s inverse, also over the server's stats frame, which
  /// extends that record with further keys.  A missing field reads as 0.
  /// Nullopt when the text is not one JSON object, or when an integer
  /// field lies outside its type's range (e.g. a peer's -5 or 1e300).
  [[nodiscard]] static std::optional<ServeMetrics> from_jsonl(
      std::string_view record);
};

}  // namespace kcoup::serve

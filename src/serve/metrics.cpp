#include "serve/metrics.hpp"

#include "report/record.hpp"
#include "support/json.hpp"

namespace kcoup::serve {

namespace {

using Counter = report::Field<ServeMetrics, std::uint64_t>;
using Seconds = report::Field<ServeMetrics, double>;

constexpr Counter kCounters[] = {
    {"workers", "workers", &ServeMetrics::workers},
    {"connections", "connections", &ServeMetrics::connections},
    {"requests", "requests", &ServeMetrics::requests},
    {"predictions", "predictions", &ServeMetrics::predictions},
    {"errors", "errors", &ServeMetrics::errors},
    {"rejected_overload", "rejected overload",
     &ServeMetrics::rejected_overload},
    {"malformed_frames", "malformed frames", &ServeMetrics::malformed_frames},
    {"oversized_frames", "oversized frames", &ServeMetrics::oversized_frames},
    {"cache_hits", "cache hits", &ServeMetrics::cache_hits},
    {"cache_misses", "cache misses", &ServeMetrics::cache_misses},
    {"cache_evictions", "cache evictions", &ServeMetrics::cache_evictions},
    {"cache_size", "cache size", &ServeMetrics::cache_size},
    {"snapshot_reloads", "snapshot reloads", &ServeMetrics::snapshot_reloads},
    {"snapshot_reload_failures", "snapshot reload failures",
     &ServeMetrics::snapshot_reload_failures},
    {"snapshot_version", "snapshot version", &ServeMetrics::snapshot_version},
    {"db_records", "db records", &ServeMetrics::db_records},
    {"latency_count", "latency samples", &ServeMetrics::latency_count},
};

constexpr Seconds kSeconds[] = {
    {"latency_p50_s", "latency p50", &ServeMetrics::latency_p50_s},
    {"latency_p95_s", "latency p95", &ServeMetrics::latency_p95_s},
    {"latency_p99_s", "latency p99", &ServeMetrics::latency_p99_s},
    {"latency_mean_s", "latency mean", &ServeMetrics::latency_mean_s},
    {"latency_max_s", "latency max", &ServeMetrics::latency_max_s},
    {"uptime_s", "uptime", &ServeMetrics::uptime_s},
};

constexpr report::RecordFields<ServeMetrics, std::uint64_t> kFields{kCounters,
                                                                    kSeconds};

}  // namespace

report::Table ServeMetrics::to_table() const {
  return kFields.table("Serve metrics", *this);
}

std::string ServeMetrics::to_csv() const { return kFields.csv(*this); }

std::string ServeMetrics::to_jsonl() const { return kFields.jsonl(*this); }

std::optional<ServeMetrics> ServeMetrics::from_jsonl(std::string_view record) {
  if (record.ends_with('\n')) record.remove_suffix(1);
  const auto json = support::json::Object::parse(record);
  if (!json.has_value()) return std::nullopt;
  ServeMetrics m;
  for (const Counter& f : kCounters) {
    if (!support::json::read_integer(*json, f.key, &(m.*f.value))) {
      return std::nullopt;
    }
  }
  for (const Seconds& f : kSeconds) {
    m.*f.value = json->number(f.key).value_or(0.0);
  }
  return m;
}

}  // namespace kcoup::serve

#include "serve/slowlog.hpp"

#include <algorithm>

#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::serve {

SlowLog::SlowLog(std::size_t slow_capacity, std::size_t failed_capacity)
    : slow_capacity_(slow_capacity == 0 ? 1 : slow_capacity),
      failed_capacity_(failed_capacity == 0 ? 1 : failed_capacity) {
  slow_.reserve(slow_capacity_);
  failed_.reserve(failed_capacity_);
}

std::string SlowLog::truncate_request(std::string_view payload,
                                      std::size_t max_bytes) {
  if (payload.size() <= max_bytes) return std::string(payload);
  std::string out(payload.substr(0, max_bytes));
  out += "...";
  return out;
}

void SlowLog::record(Entry entry) {
  if (entry.ok) {
    // Fast path: a full slow set whose floor beats this latency means the
    // entry can never be admitted — one relaxed load, no lock.
    if (entry.latency_s <= threshold_.load(std::memory_order_relaxed)) {
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entry.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  if (!entry.ok) {
    ++failed_total_;
    if (failed_.size() < failed_capacity_) {
      failed_.push_back(std::move(entry));
    } else {
      failed_[next_failed_] = std::move(entry);
      next_failed_ = (next_failed_ + 1) % failed_capacity_;
    }
    return;
  }
  if (slow_.size() < slow_capacity_) {
    slow_.push_back(std::move(entry));
  } else {
    auto smallest = std::min_element(
        slow_.begin(), slow_.end(), [](const Entry& a, const Entry& b) {
          return a.latency_s < b.latency_s;
        });
    if (entry.latency_s <= smallest->latency_s) return;  // raced below floor
    *smallest = std::move(entry);
  }
  if (slow_.size() == slow_capacity_) {
    const auto smallest = std::min_element(
        slow_.begin(), slow_.end(), [](const Entry& a, const Entry& b) {
          return a.latency_s < b.latency_s;
        });
    threshold_.store(smallest->latency_s, std::memory_order_relaxed);
  }
}

namespace {

void append_entry(std::string& out, const SlowLog::Entry& e) {
  out += "{\"latency_s\":";
  out += support::format_double(e.latency_s);
  out += ",\"seq\":";
  out += std::to_string(e.seq);
  out += ",\"shard\":";
  out += std::to_string(e.shard);
  out += ",\"ok\":";
  out += e.ok ? "true" : "false";
  out += ",\"op\":\"";
  out += support::json::escape(e.op);
  out += '"';
  if (!e.source.empty()) {
    out += ",\"source\":\"";
    out += support::json::escape(e.source);
    out += '"';
  }
  if (!e.trace_id.empty()) {
    out += ",\"trace_id\":\"";
    out += support::json::escape(e.trace_id);
    out += '"';
  }
  out += ",\"request\":\"";
  out += support::json::escape(e.request);
  out += "\"}";
}

}  // namespace

std::string SlowLog::to_json() const {
  std::vector<Entry> slow;
  std::vector<Entry> failed;
  std::uint64_t failed_total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slow = slow_;
    failed_total = failed_total_;
    // Unroll the ring into admission order (oldest first).
    failed.reserve(failed_.size());
    for (std::size_t i = 0; i < failed_.size(); ++i) {
      failed.push_back(failed_[(next_failed_ + i) % failed_.size()]);
    }
  }
  std::sort(slow.begin(), slow.end(), [](const Entry& a, const Entry& b) {
    if (a.latency_s != b.latency_s) return a.latency_s > b.latency_s;
    return a.seq < b.seq;
  });
  std::string out = "{\"ok\":true,\"failed_total\":";
  out += std::to_string(failed_total);
  out += ",\"slowest\":[";
  for (std::size_t i = 0; i < slow.size(); ++i) {
    if (i != 0) out += ',';
    append_entry(out, slow[i]);
  }
  out += "],\"failed\":[";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i != 0) out += ',';
    append_entry(out, failed[i]);
  }
  out += "]}";
  return out;
}

}  // namespace kcoup::serve

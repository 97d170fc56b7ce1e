#include "layers.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

bool batch_schedule_current_thread(bool on) {
  const sched_param param{};
  return sched_setscheduler(0, on ? SCHED_BATCH : SCHED_OTHER, &param) == 0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

Timed::Timed(const char* name, std::uint64_t id, double* sink_s,
             const char* id_key)
    : span_(name, "perfbench"), t0_(Clock::now()), sink_s_(sink_s) {
  if (span_.active()) span_.annotate(id_key, id);
}

Timed::Timed(const char* name, std::string_view trace_id)
    : span_(name, "perfbench"), t0_(Clock::now()), sink_s_(nullptr) {
  if (span_.active()) span_.annotate("trace_id", trace_id);
}

Timed::~Timed() {
  if (sink_s_ != nullptr) *sink_s_ += seconds_since(t0_);
}

void Report::add(const std::string& name, double value, const char* unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    // Non-finite values are not JSON; report them as 0 and let the checks
    // that produced them fail the run.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i != 0) out += ',';
    out += "\"" + e.name + "\":{\"value\":" + value + ",\"unit\":\"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

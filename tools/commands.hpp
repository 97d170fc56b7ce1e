#pragma once

// The `kcoup` subcommands — one *_commands.cpp per family, named by
// main.cpp's dispatch table — and the helpers the families share.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flags.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"

namespace kcoup::cli {

int cmd_study(const Flags& flags);
int cmd_transitions(const Flags& flags);
int cmd_reuse(const Flags& flags);
int cmd_parallel(const Flags& flags);
int cmd_machines(const Flags& flags);
int cmd_campaign(const Flags& flags);
int cmd_merge(const Flags& flags);
int cmd_pack(const Flags& flags);
int cmd_fit(const Flags& flags);
int cmd_serve(const Flags& flags);
int cmd_query(const Flags& flags);
int cmd_stats(const Flags& flags);
int cmd_slowlog(const Flags& flags);
int cmd_top(const Flags& flags);

/// Refuses a list that names a value twice ("<what> 4 given twice"): a
/// repeated rank count or chain length would measure, send or print the
/// same thing twice.
template <typename T>
void refuse_repeats(const std::vector<T>& values, const std::string& what) {
  for (auto v = values.begin(); v != values.end(); ++v) {
    if (std::find(values.begin(), v, *v) != v) {
      throw std::runtime_error(what + " " + std::to_string(*v) +
                               " given twice");
    }
  }
}

/// --trace-out: traces the enclosing scope and writes the Chrome trace JSON
/// however the scope unwinds (return, exit code 3, exception); inert
/// without the flag.
class TraceGuard {
 public:
  explicit TraceGuard(std::optional<std::string> path)
      : path_(std::move(path)) {
    if (path_) obs::Tracer::instance().enable();
  }

  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

  ~TraceGuard() {
    if (!path_) return;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.disable();
    if (tracer.write_chrome_trace_file(*path_)) {
      std::printf("wrote trace %s (%llu spans, %llu dropped)\n",
                  path_->c_str(),
                  static_cast<unsigned long long>(tracer.spans_recorded()),
                  static_cast<unsigned long long>(tracer.spans_dropped()));
    } else {
      std::fprintf(stderr, "kcoup: cannot write trace %s\n", path_->c_str());
    }
  }

 private:
  std::optional<std::string> path_;
};

/// --metrics-csv (rewritten) and --metrics-jsonl (appended to): where a
/// command exports its CampaignMetrics or ServeMetrics record.
struct MetricsExport {
  explicit MetricsExport(const Flags& flags)
      : csv(flags.maybe("metrics-csv")), jsonl(flags.maybe("metrics-jsonl")) {}

  /// Writes the files asked for, naming each on stdout when `announce`.
  template <typename Metrics>
  void write(const Metrics& metrics, bool announce) const {
    if (csv) {
      support::write_file_atomic(*csv, metrics.to_csv());
      if (announce) std::printf("wrote %s\n", csv->c_str());
    }
    if (jsonl) {
      support::append_file_atomic(*jsonl, metrics.to_jsonl());
      if (announce) std::printf("appended %s\n", jsonl->c_str());
    }
  }

  std::optional<std::string> csv;
  std::optional<std::string> jsonl;
};

}  // namespace kcoup::cli

#include "campaign/campaign.hpp"

#include <istream>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "report/record.hpp"
#include "support/num_format.hpp"

namespace kcoup::campaign {

namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void reject(std::size_t line_no, const std::string& key,
                         const std::string& why) {
  throw std::runtime_error("campaign spec line " + std::to_string(line_no) +
                           ": '" + key + "' " + why);
}

/// The integer `value` of `key`, refused below `min`.  `subject` prefixes
/// the reason ("entries " for a list item).
int parse_int(std::size_t line_no, const std::string& key,
              const std::string& value, int min, const char* subject = "") {
  const auto v = support::parse_int<int>(value);
  if (!v.has_value()) {
    throw std::runtime_error("campaign spec: bad integer for '" + key +
                             "': '" + value + "'");
  }
  if (*v < min) {
    reject(line_no, key,
           std::string(subject) + "must be >= " + std::to_string(min));
  }
  return *v;
}

double parse_double(std::size_t line_no, const std::string& key,
                    const std::string& value, double min) {
  const auto v = support::parse_double(value);
  if (!v.has_value()) {
    throw std::runtime_error("campaign spec: bad number for '" + key + "': '" +
                             value + "'");
  }
  if (!(*v >= min)) {
    reject(line_no, key, "must be >= " + support::format_double(min));
  }
  return *v;
}

}  // namespace

CampaignTextSpec parse_campaign_text(std::istream& in) {
  using Min = TextSpecMinimum;
  CampaignTextSpec spec;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("campaign spec line " + std::to_string(line_no) +
                               ": expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw std::runtime_error("campaign spec line " + std::to_string(line_no) +
                               ": empty key or value");
    }
    const auto int_value = [&](int min) {
      return parse_int(line_no, key, value, min);
    };
    if (key == "apps") {
      spec.applications = split_list(value);
    } else if (key == "classes" || key == "configs") {
      spec.configs = split_list(value);
    } else if (key == "procs" || key == "ranks") {
      spec.ranks.clear();
      for (const std::string& item : split_list(value)) {
        spec.ranks.push_back(
            parse_int(line_no, key, item, Min::kRanks, "entries "));
      }
    } else if (key == "chains") {
      spec.chain_lengths.clear();
      for (const std::string& item : split_list(value)) {
        spec.chain_lengths.push_back(static_cast<std::size_t>(
            parse_int(line_no, key, item, Min::kChainLength, "entries ")));
      }
    } else if (key == "repetitions") {
      spec.measurement.repetitions = int_value(Min::kRepetitions);
    } else if (key == "warmup") {
      spec.measurement.warmup = int_value(Min::kWarmup);
    } else if (key == "epilogue_repetitions") {
      spec.measurement.epilogue_repetitions =
          int_value(Min::kEpilogueRepetitions);
    } else if (key == "workers") {
      spec.workers = static_cast<std::size_t>(int_value(Min::kWorkers));
    } else if (key == "machine") {
      spec.machine = value;
    } else if (key == "retry_rsd") {
      spec.retry.max_relative_stddev =
          parse_double(line_no, key, value, Min::kRetryRsd);
    } else if (key == "retry_max") {
      spec.retry.max_attempts = int_value(Min::kRetryMax);
    } else {
      throw std::runtime_error("campaign spec line " + std::to_string(line_no) +
                               ": unknown key '" + key + "'");
    }
  }
  if (spec.applications.empty()) {
    throw std::runtime_error("campaign spec: missing 'apps'");
  }
  if (spec.configs.empty()) {
    throw std::runtime_error("campaign spec: missing 'classes'");
  }
  if (spec.ranks.empty()) {
    throw std::runtime_error("campaign spec: missing 'procs'");
  }
  return spec;
}

std::string to_text(const CampaignTextSpec& spec) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  auto list = [&out](const char* key, const auto& items) {
    out << key << " = ";
    bool first = true;
    for (const auto& item : items) {
      if (!first) out << ", ";
      out << item;
      first = false;
    }
    out << '\n';
  };
  list("apps", spec.applications);
  list("classes", spec.configs);
  list("procs", spec.ranks);
  list("chains", spec.chain_lengths);
  out << "repetitions = " << spec.measurement.repetitions << '\n';
  out << "warmup = " << spec.measurement.warmup << '\n';
  out << "epilogue_repetitions = " << spec.measurement.epilogue_repetitions
      << '\n';
  out << "workers = " << spec.workers << '\n';
  out << "machine = " << spec.machine << '\n';
  out << "retry_rsd = " << support::format_double(spec.retry.max_relative_stddev)
      << '\n';
  out << "retry_max = " << spec.retry.max_attempts << '\n';
  return out.str();
}

namespace {

using Count = report::Field<CampaignMetrics, std::size_t>;
using Seconds = report::Field<CampaignMetrics, double>;

constexpr Count kCounts[] = {
    {"studies", "studies", &CampaignMetrics::studies},
    {"workers", "workers", &CampaignMetrics::workers},
    {"tasks_requested", "tasks requested", &CampaignMetrics::tasks_requested},
    {"tasks_planned", "tasks planned", &CampaignMetrics::tasks_planned},
    {"tasks_deduplicated", "tasks deduplicated",
     &CampaignMetrics::tasks_deduplicated},
    {"cache_hits", "cache hits", &CampaignMetrics::cache_hits},
    {"journal_hits", "journal hits", &CampaignMetrics::journal_hits},
    {"tasks_executed", "tasks executed", &CampaignMetrics::tasks_executed},
    {"tasks_retried", "tasks retried", &CampaignMetrics::tasks_retried},
    {"tasks_failed", "tasks failed", &CampaignMetrics::tasks_failed},
    {"handles_created", "handles created", &CampaignMetrics::handles_created},
    {"handles_reused", "handles reused", &CampaignMetrics::handles_reused},
};

constexpr Seconds kSeconds[] = {
    {"plan_s", "plan time", &CampaignMetrics::plan_s},
    {"measure_s", "measure time", &CampaignMetrics::measure_s},
    {"assemble_s", "assemble time", &CampaignMetrics::assemble_s},
    {"wall_s", "wall time", &CampaignMetrics::wall_s},
    {"task_min_s", "task time min", &CampaignMetrics::task_min_s},
    {"task_max_s", "task time max", &CampaignMetrics::task_max_s},
    {"task_mean_s", "task time mean", &CampaignMetrics::task_mean_s},
};

constexpr report::RecordFields<CampaignMetrics, std::size_t> kFields{kCounts,
                                                                     kSeconds};

/// A field's registry name: "campaign." and its key.
std::string registry_name(const char* key) {
  return std::string("campaign.") + key;
}

}  // namespace

void CampaignMetrics::publish(obs::MetricsRegistry& registry) const {
  for (const Count& f : kCounts) {
    registry.counter(registry_name(f.key))
        .add(static_cast<std::uint64_t>(this->*f.value));
  }
  for (const Seconds& f : kSeconds) {
    registry.gauge(registry_name(f.key)).set(this->*f.value);
  }
}

CampaignMetrics CampaignMetrics::from_registry(obs::MetricsRegistry& registry) {
  CampaignMetrics m;
  for (const Count& f : kCounts) {
    m.*f.value =
        static_cast<std::size_t>(registry.counter(registry_name(f.key)).value());
  }
  for (const Seconds& f : kSeconds) {
    m.*f.value = registry.gauge(registry_name(f.key)).value();
  }
  return m;
}

report::Table CampaignMetrics::to_table() const {
  return kFields.table("Campaign metrics", *this);
}

std::string CampaignMetrics::to_csv() const { return kFields.csv(*this); }

std::string CampaignMetrics::to_jsonl() const { return kFields.jsonl(*this); }

}  // namespace kcoup::campaign

#include "campaign/shard.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>

#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"

namespace kcoup::campaign {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv1a_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void fnv1a_string(std::uint64_t& h, const std::string& s) {
  fnv1a_bytes(h, s.data(), s.size());
  // 0xff cannot appear in the hashed length/kind bytes below and terminates
  // the string unambiguously, so ("ab","c") and ("a","bc") hash differently.
  h ^= 0xffU;
  h *= kFnvPrime;
}

/// Hash a 64-bit integer as little-endian bytes explicitly, so the digest is
/// the same on any host regardless of its native byte order.
void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
  fnv1a_bytes(h, bytes, sizeof bytes);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string zero_padded(std::size_t value, int width) {
  std::string s = std::to_string(value);
  while (static_cast<int>(s.size()) < width) s.insert(s.begin(), '0');
  return s;
}

double journal_age_s(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return std::numeric_limits<double>::infinity();
  const auto age = fs::file_time_type::clock::now() - mtime;
  const double s = std::chrono::duration<double>(age).count();
  return s < 0.0 ? 0.0 : s;  // clock skew: a future mtime reads as fresh
}

}  // namespace

std::uint64_t task_key_hash(const TaskKey& key) {
  std::uint64_t h = kFnvOffset;
  fnv1a_string(h, key.application);
  fnv1a_string(h, key.config);
  fnv1a_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(key.ranks)));
  fnv1a_u64(h, static_cast<std::uint64_t>(key.kind));
  fnv1a_u64(h, static_cast<std::uint64_t>(key.index));
  fnv1a_u64(h, static_cast<std::uint64_t>(key.length));
  return splitmix64(h);
}

std::size_t shard_of(const TaskKey& key, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(task_key_hash(key) % shards);
}

std::string shard_journal_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + zero_padded(shard, 3) + ".jsonl";
}

std::string coordinator_journal_path(const std::string& dir) {
  return dir + "/coordinator.jsonl";
}

std::string shard_count_path(const std::string& dir) {
  return dir + "/shards";
}

void write_shard_count(const std::string& dir, std::size_t shards,
                       std::size_t shard_id) {
  const std::string path = shard_count_path(dir);
  const std::size_t existing = read_shard_count(dir);
  if (existing != 0) {
    if (existing != shards) {
      throw std::runtime_error(
          "shard manifest " + path + " says --shards " +
          std::to_string(existing) + " but this shard was launched with " +
          std::to_string(shards) +
          "; all shards of a campaign must agree or the partitions overlap");
    }
    return;
  }
  // Concurrent shard launches may race here: give each writer its own temp
  // name and let rename pick a winner.  Every writer writes the same bytes,
  // so any winner is correct.
  const std::string tmp_suffix = ".tmp." + zero_padded(shard_id, 3);
  support::write_file_atomic(path, std::to_string(shards) + "\n",
                             tmp_suffix.c_str());
}

std::size_t read_shard_count(const std::string& dir) {
  std::ifstream in(shard_count_path(dir));
  if (!in) return 0;
  long long value = 0;
  in >> value;
  if (in.fail() || value < 0) return 0;
  return static_cast<std::size_t>(value);
}

ShardResult run_shard(const CampaignSpec& spec, const ShardOptions& options,
                      std::size_t workers, obs::MetricsRegistry* registry) {
  if (options.shards < 1) {
    throw std::invalid_argument("run_shard: shards must be >= 1");
  }
  if (options.shard_id >= options.shards) {
    throw std::invalid_argument(
        "run_shard: shard_id " + std::to_string(options.shard_id) +
        " out of range for " + std::to_string(options.shards) + " shards");
  }
  if (options.journal_dir.empty()) {
    throw std::invalid_argument("run_shard: journal_dir must be set");
  }
  if (!spec.journal_path.empty()) {
    throw std::invalid_argument(
        "run_shard: spec.journal_path must be empty; each shard journals to "
        "its own file under journal_dir");
  }
  if (options.steal_after_s < 0.0) {
    throw std::invalid_argument("run_shard: steal_after_s must be >= 0");
  }

  namespace fs = std::filesystem;
  fs::create_directories(options.journal_dir);
  write_shard_count(options.journal_dir, options.shards, options.shard_id);

  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg = registry != nullptr ? *registry : local_registry;
  obs::ScopedSpan span("shard_run", "campaign");
  if (span.active()) {
    span.annotate("shard", static_cast<std::uint64_t>(options.shard_id));
    span.annotate("shards", static_cast<std::uint64_t>(options.shards));
  }

  CampaignPlan plan;
  {
    obs::ScopedSpan plan_span("plan", "campaign");
    plan = plan_campaign(spec);
  }

  ShardResult result;
  result.shard_id = options.shard_id;
  result.shards = options.shards;

  std::vector<MeasurementTask> mine;
  for (const MeasurementTask& t : plan.tasks) {
    if (shard_of(t.key, options.shards) == options.shard_id) {
      mine.push_back(t);
    }
  }
  result.tasks_assigned = mine.size();

  const std::string journal_path =
      shard_journal_path(options.journal_dir, options.shard_id);
  const JournalLoad own = load_journal_file(journal_path);
  // Keys this process no longer needs to run: successes from a previous
  // (killed and resumed) incarnation, whether owned or stolen.  Failure
  // records are deliberately not in this set — a resumed shard retries them,
  // matching the single-process resume semantics.
  std::set<TaskKey> done;
  for (const auto& [key, entry] : own.completed) done.insert(key);

  std::vector<MeasurementTask> todo;
  for (const MeasurementTask& t : mine) {
    if (done.count(t.key) != 0) {
      ++result.tasks_resumed;
    } else {
      todo.push_back(t);
    }
  }

  TaskJournal journal(journal_path);
  {
    obs::ScopedSpan measure_span("shard_measure", "campaign");
    TaskSetResult run = execute_tasks(spec, todo, workers, &reg, &journal);
    result.tasks_executed = todo.size();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      if (run.outcomes[i].ok) done.insert(todo[i].key);
    }
    result.failures = std::move(run.failures);
  }

  if (options.steal && options.shards > 1) {
    // Snapshot every other shard's journal once: the union of completions is
    // what makes two sequential stealers not re-steal each other's work.
    std::vector<JournalLoad> loads(options.shards);
    std::vector<double> ages(options.shards, 0.0);
    for (std::size_t s = 0; s < options.shards; ++s) {
      if (s == options.shard_id) continue;
      const std::string peer = shard_journal_path(options.journal_dir, s);
      loads[s] = load_journal_file(peer);
      ages[s] = loads[s].exists ? journal_age_s(peer)
                                : std::numeric_limits<double>::infinity();
      for (const auto& [key, entry] : loads[s].completed) done.insert(key);
    }
    for (std::size_t s = 0; s < options.shards; ++s) {
      if (s == options.shard_id) continue;
      std::vector<MeasurementTask> pending;
      for (const MeasurementTask& t : plan.tasks) {
        if (shard_of(t.key, options.shards) != s) continue;
        if (done.count(t.key) != 0) continue;
        // The owner exhausted its retry budget on this key: stealing it
        // would only journal a duplicate failure, so leave the owner's
        // record as the authoritative one for the merge's failure table.
        if (loads[s].failed.count(t.key) != 0) continue;
        pending.push_back(t);
      }
      if (pending.empty()) continue;
      // Watermark check: a journal that grew recently belongs to a live
      // shard that will finish its own work; only a stale (or never
      // started) shard is a straggler worth backfilling.
      if (ages[s] < options.steal_after_s) continue;
      ++result.steal_scans;
      obs::ScopedSpan steal_span("steal_scan", "campaign");
      if (steal_span.active()) {
        steal_span.annotate("victim", static_cast<std::uint64_t>(s));
        steal_span.annotate("tasks",
                            static_cast<std::uint64_t>(pending.size()));
      }
      TaskSetResult stolen = execute_tasks(spec, pending, workers, &reg,
                                           &journal);
      result.tasks_stolen += pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (stolen.outcomes[i].ok) done.insert(pending[i].key);
      }
      result.failures.insert(result.failures.end(),
                             stolen.failures.begin(), stolen.failures.end());
    }
  }

  std::sort(result.failures.begin(), result.failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.key < b.key;
            });

  auto count = [&reg](const char* name, std::size_t v) {
    reg.counter(name).add(static_cast<std::uint64_t>(v));
  };
  count("campaign.shard.index", options.shard_id);
  count("campaign.shard.count", options.shards);
  count("campaign.shard.tasks_assigned", result.tasks_assigned);
  count("campaign.shard.tasks_resumed", result.tasks_resumed);
  count("campaign.shard.tasks_stolen", result.tasks_stolen);
  count("campaign.shard.steal_scans", result.steal_scans);
  count("campaign.studies", spec.studies.size());
  count("campaign.tasks_requested", plan.tasks_requested);
  count("campaign.tasks_planned", plan.tasks.size());
  count("campaign.tasks_deduplicated", plan.tasks_deduplicated);
  result.metrics = CampaignMetrics::from_registry(reg);
  return result;
}

}  // namespace kcoup::campaign

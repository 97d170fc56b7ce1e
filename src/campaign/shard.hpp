#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/task_key.hpp"

namespace kcoup::campaign {

/// Platform-stable 64-bit hash of every TaskKey field: FNV-1a over a
/// canonical byte serialization (strings with an 0xff terminator, integers
/// little-endian fixed-width), finalized through splitmix64.  Depends on
/// nothing but the key's values — not plan order, not pointer identity, not
/// the host's endianness or std::hash — so shard membership is identical
/// across runs, machines and library versions.
[[nodiscard]] std::uint64_t task_key_hash(const TaskKey& key);

/// Which of `shards` partitions owns `key`: task_key_hash(key) % shards.
/// shards == 0 is treated as 1 (everything in shard 0).
[[nodiscard]] std::size_t shard_of(const TaskKey& key, std::size_t shards);

/// Canonical layout of a shard campaign's journal directory.
/// `shard-NNN.jsonl` per shard, `coordinator.jsonl` for tasks a stealing
/// merge executed itself, `shards` holding the shard count, and (written by
/// the CLI) `campaign.spec` with the sweep definition.
[[nodiscard]] std::string shard_journal_path(const std::string& dir,
                                             std::size_t shard);
[[nodiscard]] std::string coordinator_journal_path(const std::string& dir);
[[nodiscard]] std::string shard_count_path(const std::string& dir);

/// Write `shards` into the directory's `shards` manifest (atomically, with
/// a per-shard temp name so concurrent shard launches cannot tear it), or
/// throw std::runtime_error if a manifest with a *different* count already
/// exists — the guard against mismatched `--shards` across a launch.
void write_shard_count(const std::string& dir, std::size_t shards,
                       std::size_t shard_id);

/// Read the `shards` manifest; 0 when absent.
[[nodiscard]] std::size_t read_shard_count(const std::string& dir);

/// How one shard process runs: which partition it owns, where the journal
/// directory lives, and whether it turns into a work stealer after
/// finishing its own partition.
struct ShardOptions {
  std::size_t shards = 1;   ///< total partitions; must be >= 1
  std::size_t shard_id = 0; ///< this process's partition, in [0, shards)
  std::string journal_dir;  ///< shared directory for all shard journals
  /// After completing its own partition, scan the other shards' journals
  /// and re-execute tasks their owners have not journaled yet.
  bool steal = false;
  /// Only steal from a shard whose journal has not grown for at least this
  /// many seconds (or does not exist).  0 steals from any incomplete shard
  /// immediately — useful for tests and for backfilling dead shards.
  double steal_after_s = 0.0;
};

/// What one shard process did.  `failures` covers only the tasks this
/// process executed (own partition plus stolen work); other shards' results
/// live in their journals until merge_shards() joins them.
struct ShardResult {
  std::size_t shard_id = 0;
  std::size_t shards = 1;
  std::size_t tasks_assigned = 0;  ///< plan tasks owned by this shard
  std::size_t tasks_resumed = 0;   ///< already complete in the own journal
  std::size_t tasks_executed = 0;  ///< executed this run (own partition)
  std::size_t tasks_stolen = 0;    ///< executed on behalf of stragglers
  std::size_t steal_scans = 0;     ///< straggler shards scanned
  std::vector<TaskFailure> failures;  ///< key order
  CampaignMetrics metrics;

  [[nodiscard]] bool complete() const { return failures.empty(); }
};

/// Execute one shard of a campaign: plan the full sweep exactly as the
/// serial path would, keep only the tasks whose shard_of() is
/// `options.shard_id`, resume any of them already completed in this shard's
/// journal, and execute the rest with `workers` threads, appending every
/// finished task (successes and failures) to
/// `shard_journal_path(options.journal_dir, options.shard_id)`.
///
/// Because every task is an independent measurement starting from a reset
/// application, the values a shard journals are bit-identical to what the
/// serial campaign would have measured for the same keys — merge_shards()
/// reassembles them into a database byte-identical to the serial run.
///
/// With `options.steal` set, a shard that finishes its partition scans the
/// other shards' journal watermarks; any shard that is incomplete and stale
/// (age >= steal_after_s) has its unjournaled tasks re-executed here,
/// appended to *this* shard's journal.  Duplicates are resolved
/// first-writer-wins at merge (the owner's record preferred), so stealing
/// can never change result bits — it only fills holes stragglers left.
///
/// Publishes "campaign.shard.*" counters into `registry` alongside the
/// usual "campaign.*" execution metrics, and emits "shard_run" /
/// "steal_scan" spans when tracing is enabled.  Throws std::invalid_argument
/// for an out-of-range shard_id, an empty journal_dir, or a spec that
/// already carries a journal_path (the shard owns its journaling).
[[nodiscard]] ShardResult run_shard(const CampaignSpec& spec,
                                    const ShardOptions& options,
                                    std::size_t workers = 0,
                                    obs::MetricsRegistry* registry = nullptr);

}  // namespace kcoup::campaign

// Sharded campaigns and the merge coordinator: consistent-hash partitioning
// (stability, reorder invariance, balance), N-shard runs merging to a
// database byte-identical to the serial path — including killed-and-resumed
// shards, shard-level and coordinator-level work stealing — torn-journal
// tolerance at every truncation offset, and failed-task accounting through
// the merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/executor.hpp"
#include "campaign/faultsim.hpp"
#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "campaign/shard.hpp"
#include "coupling/database.hpp"

namespace kcoup::campaign {
namespace {

// --- Fixtures ----------------------------------------------------------------

/// Deterministic callable-kernel application; kernel k costs (k+1) * scale.
struct SyntheticApp {
  std::vector<std::unique_ptr<coupling::CallableKernel>> kernels;
  coupling::LoopApplication app;

  explicit SyntheticApp(std::size_t loop_size, double scale) {
    app.name = "synthetic";
    app.iterations = 3;
    for (std::size_t k = 0; k < loop_size; ++k) {
      std::string name = "k";
      name += std::to_string(k);
      kernels.push_back(std::make_unique<coupling::CallableKernel>(
          std::move(name),
          [k, scale] { return static_cast<double>(k + 1) * scale; }));
      app.loop.push_back(kernels.back().get());
    }
  }

  [[nodiscard]] const coupling::LoopApplication& application() const {
    return app;
  }
};

struct AppOwner {
  SyntheticApp inner;
  AppOwner(std::size_t loop_size, double scale) : inner(loop_size, scale) {}
  [[nodiscard]] const coupling::LoopApplication& app() const {
    return inner.app;
  }
};

CampaignStudy synthetic_cell(const std::string& name, int ranks,
                             std::size_t loop_size, double scale) {
  CampaignStudy cell;
  cell.application = name;
  cell.config = "C";
  cell.ranks = ranks;
  cell.factory = [loop_size, scale] {
    return own_app(std::make_unique<AppOwner>(loop_size, scale));
  };
  return cell;
}

/// Two synthetic cells, chains {2, 3}: 26 deduplicated tasks.
CampaignSpec synthetic_spec() {
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  spec.studies.push_back(synthetic_cell("A", 1, 4, 1.0));
  spec.studies.push_back(synthetic_cell("B", 4, 4, 2.0));
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// The serial ground truth: run the whole campaign in one process, record
/// into a database, return the saved CSV bytes (and the result).
std::string serial_csv(const CampaignSpec& spec, CampaignResult* result_out,
                       const std::string& name) {
  coupling::CouplingDatabase db;
  CampaignResult result = run_campaign(spec, 1, &db);
  const std::string path = testing::TempDir() + name;
  db.save_csv_file(path);
  if (result_out != nullptr) *result_out = std::move(result);
  std::string bytes = read_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

/// Merge a shard directory and return the saved-CSV bytes of the recorded
/// database.
std::string merged_csv(const CampaignSpec& spec, const MergeOptions& options,
                       MergeResult* merge_out, const std::string& name) {
  MergeResult merged = merge_shards(spec, options);
  coupling::CouplingDatabase db;
  record_campaign(spec, merged.result, db);
  const std::string path = testing::TempDir() + name;
  db.save_csv_file(path);
  if (merge_out != nullptr) *merge_out = std::move(merged);
  std::string bytes = read_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

// --- Consistent hashing ------------------------------------------------------

TEST(TaskKeyHashTest, GoldenValuesPinThePlatformContract) {
  // These constants are the on-disk partitioning contract: if they change,
  // resuming an old shard directory silently re-partitions the plan and
  // every shard re-executes (or worse, skips) the wrong tasks.  Do not
  // update them without a migration story.
  const TaskKey chain{"BT", "W", 4, TaskKind::kChain, 2, 3};
  const TaskKey actual{"synthetic", "C", 1, TaskKind::kActual, 0, 0};
  const TaskKey epi{"LU", "A", 16, TaskKind::kEpilogue, 1, 0};
  EXPECT_EQ(task_key_hash(chain), UINT64_C(0x2dd8da2bc52ce65a));
  EXPECT_EQ(task_key_hash(actual), UINT64_C(0x4d6c80057faf9ba5));
  EXPECT_EQ(task_key_hash(epi), UINT64_C(0xf168db6f05e42dc7));
}

TEST(TaskKeyHashTest, HashIsAPureFunctionOfTheKeyFields) {
  const TaskKey key{"BT", "W", 9, TaskKind::kChain, 1, 2};
  const std::uint64_t first = task_key_hash(key);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(task_key_hash(key), first);
  }
  // Every field participates.
  TaskKey k2 = key;
  k2.application = "SP";
  EXPECT_NE(task_key_hash(k2), first);
  k2 = key;
  k2.config = "A";
  EXPECT_NE(task_key_hash(k2), first);
  k2 = key;
  k2.ranks = 16;
  EXPECT_NE(task_key_hash(k2), first);
  k2 = key;
  k2.kind = TaskKind::kPrologue;
  EXPECT_NE(task_key_hash(k2), first);
  k2 = key;
  k2.index = 2;
  EXPECT_NE(task_key_hash(k2), first);
  k2 = key;
  k2.length = 3;
  EXPECT_NE(task_key_hash(k2), first);
}

TEST(TaskKeyHashTest, StringBoundaryIsUnambiguous) {
  // ("ab", "c") and ("a", "bc") must not collide: the field separator is
  // part of the digest.
  TaskKey a{"ab", "c", 1, TaskKind::kChain, 0, 1};
  TaskKey b{"a", "bc", 1, TaskKind::kChain, 0, 1};
  EXPECT_NE(task_key_hash(a), task_key_hash(b));
}

TEST(ShardOfTest, DegenerateCountsMapToShardZero) {
  const TaskKey key{"BT", "W", 4, TaskKind::kActual, 0, 0};
  EXPECT_EQ(shard_of(key, 0), 0u);
  EXPECT_EQ(shard_of(key, 1), 0u);
}

TEST(ShardOfTest, AssignmentIsInvariantUnderPlanReordering) {
  CampaignSpec forward = synthetic_spec();
  CampaignSpec reversed;
  reversed.chain_lengths = {3, 2};
  reversed.studies.push_back(synthetic_cell("B", 4, 4, 2.0));
  reversed.studies.push_back(synthetic_cell("A", 1, 4, 1.0));

  const CampaignPlan p1 = plan_campaign(forward);
  const CampaignPlan p2 = plan_campaign(reversed);
  ASSERT_EQ(p1.tasks.size(), p2.tasks.size());

  for (const std::size_t shards : {2u, 3u, 8u}) {
    std::map<TaskKey, std::size_t> assign1;
    for (const MeasurementTask& t : p1.tasks) {
      assign1[t.key] = shard_of(t.key, shards);
    }
    for (const MeasurementTask& t : p2.tasks) {
      const auto it = assign1.find(t.key);
      ASSERT_NE(it, assign1.end()) << to_string(t.key);
      EXPECT_EQ(shard_of(t.key, shards), it->second) << to_string(t.key);
    }
  }
}

TEST(ShardOfTest, PartitionIsBalancedWithinDocumentedTolerance) {
  // A synthetic population large enough for the law of large numbers: 1024
  // keys spread over applications, configs, ranks, kinds and indices.  The
  // documented guarantee (docs/campaign.md) is every shard within +-30% of
  // the fair share for N in {2, 3, 8}.
  std::vector<TaskKey> keys;
  for (const char* app : {"BT", "SP", "LU", "synthetic"}) {
    for (const char* cfg : {"S", "W", "A", "B"}) {
      for (int ranks : {1, 4, 9, 16}) {
        for (std::size_t index = 0; index < 4; ++index) {
          keys.push_back(TaskKey{app, cfg, ranks, TaskKind::kChain, index, 2});
          keys.push_back(TaskKey{app, cfg, ranks, TaskKind::kChain, index, 3});
          keys.push_back(
              TaskKey{app, cfg, ranks, TaskKind::kPrologue, index, 0});
          keys.push_back(
              TaskKey{app, cfg, ranks, TaskKind::kEpilogue, index, 0});
        }
      }
    }
  }
  ASSERT_EQ(keys.size(), 1024u);

  for (const std::size_t shards : {2u, 3u, 8u}) {
    std::vector<std::size_t> counts(shards, 0);
    for (const TaskKey& key : keys) {
      const std::size_t s = shard_of(key, shards);
      ASSERT_LT(s, shards);
      ++counts[s];
    }
    const double fair =
        static_cast<double>(keys.size()) / static_cast<double>(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " shard=" +
                   std::to_string(s));
      EXPECT_GE(static_cast<double>(counts[s]), fair * 0.7);
      EXPECT_LE(static_cast<double>(counts[s]), fair * 1.3);
    }
  }
}

// --- Journal failure records and torn tails ----------------------------------

TEST(JournalFailureRecordTest, ErrorRoundTripsAndSuccessLinesAreUnchanged) {
  JournalEntry ok{TaskKey{"BT", "W", 4, TaskKind::kChain, 1, 2}, 0.125, 2, ""};
  const std::string ok_line = journal_line(ok);
  // Success lines must stay byte-identical to the pre-failure-record format
  // so old journals and new journals interoperate.
  EXPECT_EQ(ok_line.find("error"), std::string::npos);
  const auto ok_back = parse_journal_line(ok_line);
  ASSERT_TRUE(ok_back.has_value());
  EXPECT_TRUE(ok_back->ok());
  EXPECT_EQ(ok_back->value, 0.125);

  JournalEntry failed{TaskKey{"BT", "W", 4, TaskKind::kChain, 1, 2}, 0.0, 3,
                      "injected \"construct\" fault"};
  const auto back = parse_journal_line(journal_line(failed));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok());
  EXPECT_EQ(back->attempts, 3);
  EXPECT_EQ(back->error, "injected \"construct\" fault");
}

TEST(JournalFailureRecordTest, LoadJournalSkipsFailuresSoResumeRetriesThem) {
  std::ostringstream file;
  file << journal_line(JournalEntry{
              TaskKey{"A", "C", 1, TaskKind::kChain, 0, 1}, 1.5, 1, ""})
       << '\n'
       << journal_line(JournalEntry{
              TaskKey{"A", "C", 1, TaskKind::kChain, 1, 1}, 0.0, 3, "boom"})
       << '\n';
  std::istringstream in(file.str());
  const auto completed = load_journal(in);
  EXPECT_EQ(completed.size(), 1u);

  std::istringstream in2(file.str());
  const JournalLoad load = load_journal_entries(in2);
  EXPECT_EQ(load.completed.size(), 1u);
  EXPECT_EQ(load.failed.size(), 1u);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.malformed, 0u);
}

TEST(TornJournalTest, TruncationAtEveryByteOffsetOfTheLastRecord) {
  const JournalEntry e1{TaskKey{"A", "C", 1, TaskKind::kChain, 0, 1},
                        0.0625, 1, ""};
  const JournalEntry e2{TaskKey{"A", "C", 1, TaskKind::kChain, 1, 1},
                        0.125, 1, ""};
  const JournalEntry e3{TaskKey{"A", "C", 1, TaskKind::kChain, 2, 1},
                        0.017857142857142856, 2, ""};
  const std::string l1 = journal_line(e1) + "\n";
  const std::string l2 = journal_line(e2) + "\n";
  const std::string l3 = journal_line(e3) + "\n";
  const std::string prefix = l1 + l2;
  const std::string path = testing::TempDir() + "torn.jsonl";

  for (std::size_t cut = 0; cut <= l3.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << prefix << l3.substr(0, cut);
    }
    const JournalLoad load = load_journal_file(path);
    ASSERT_TRUE(load.exists);
    EXPECT_EQ(load.malformed, 0u);
    if (cut == 0) {
      // Clean kill between records: two complete entries, nothing torn.
      EXPECT_EQ(load.completed.size(), 2u);
      EXPECT_FALSE(load.torn_tail);
    } else if (cut >= l3.size() - 1) {
      // The full record — with or without its newline — parses.  The third
      // value must survive bit-exactly (0.017857... is not representable).
      EXPECT_EQ(load.completed.size(), 3u);
      EXPECT_FALSE(load.torn_tail);
      EXPECT_EQ(load.completed.at(e3.key).value, e3.value);
    } else {
      // A mid-record tear: the partial line is skipped, counted as the torn
      // tail, and everything before it survives.
      EXPECT_EQ(load.completed.size(), 2u);
      EXPECT_TRUE(load.torn_tail);
    }
    EXPECT_EQ(load.completed.at(e1.key).value, e1.value);
    EXPECT_EQ(load.completed.at(e2.key).value, e2.value);
  }
  std::remove(path.c_str());
}

/// A failure record whose error text holds what the old writer mishandled:
/// a brace (a tear just after it left a line ending in '}'), a newline
/// (written raw, it split the record in two) and quotes.
JournalEntry hostile_failure() {
  return JournalEntry{TaskKey{"A", "C", 1, TaskKind::kChain, 3, 1}, 0.0, 3,
                      "bad cell {P=4}\nretry \"later\""};
}

TEST(TornJournalTest, FailureRecordWithControlBytesStaysOneRecord) {
  const JournalEntry failed = hostile_failure();
  const std::string line = journal_line(failed);
  for (char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  std::istringstream in(line + "\n");
  const JournalLoad load = load_journal_entries(in);
  EXPECT_EQ(load.lines, 1u);
  EXPECT_TRUE(load.completed.empty());
  ASSERT_EQ(load.failed.size(), 1u);
  EXPECT_EQ(load.failed.at(failed.key).error, failed.error);
  EXPECT_EQ(load.failed.at(failed.key).attempts, 3);
  EXPECT_EQ(load.malformed, 0u);
  EXPECT_FALSE(load.torn_tail);
}

TEST(TornJournalTest, NoStrictPrefixOfAFailureRecordLoads) {
  const std::string line = journal_line(hostile_failure());
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string torn = line.substr(0, cut);
    std::istringstream in(torn);
    const JournalLoad load = load_journal_entries(in);
    EXPECT_TRUE(load.completed.empty());
    EXPECT_TRUE(load.failed.empty());
    EXPECT_TRUE(load.torn_tail);
    std::istringstream resume(torn);
    EXPECT_TRUE(load_journal(resume).empty());
  }
}

TEST(TornJournalTest, BitFlipsOfAFailureRecordReturnWithoutCrashing) {
  const std::string line = journal_line(hostile_failure());
  std::size_t parsed = 0;
  for (std::size_t at = 0; at < line.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = line;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      parsed += parse_journal_line(flipped).has_value();
      std::istringstream in(flipped + "\n");
      (void)load_journal_entries(in);
    }
  }
  // Flips inside the error text still parse; flips of the braces do not.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, line.size() * 8);
}

/// journal_line(entry) with the value of `field` replaced by `text`.
std::string with_field(const JournalEntry& entry, const std::string& field,
                       const std::string& text) {
  std::string line = journal_line(entry);
  const std::string tag = "\"" + field + "\":";
  const std::size_t at = line.find(tag) + tag.size();
  return line.replace(at, line.find_first_of(",}", at) - at, text);
}

TEST(TornJournalTest, MidStreamGarbageIsMalformedNotTorn) {
  const JournalEntry first{TaskKey{"A", "C", 1, TaskKind::kChain, 0, 1}, 1.0,
                           1, ""};
  std::ostringstream file;
  file << journal_line(first) << '\n'
       << "{\"application\":\"A\",\"conf" << '\n'  // torn... but not last
       << with_field(first, "ranks", "1e300") << '\n'  // whole, ranks no int
       << journal_line(JournalEntry{
              TaskKey{"A", "C", 1, TaskKind::kChain, 1, 1}, 2.0, 1, ""})
       << '\n';
  std::istringstream in(file.str());
  const JournalLoad load = load_journal_entries(in);
  EXPECT_EQ(load.completed.size(), 2u);
  EXPECT_EQ(load.malformed, 2u);
  EXPECT_FALSE(load.torn_tail);
  std::istringstream resume(file.str());
  EXPECT_EQ(load_journal(resume).size(), 2u);
}

TEST(JournalIntegerFieldTest, ValuesPastEachFieldsRangeAreRefused) {
  const JournalEntry entry{TaskKey{"A", "C", 4, TaskKind::kChain, 1, 2}, 0.5,
                           1, ""};
  ASSERT_TRUE(parse_journal_line(with_field(entry, "ranks", "4")).has_value());
  struct Field {
    const char* name;
    const char* below_min;
    const char* above_max;
  };
  // ranks and attempts are int; index and length are std::size_t.
  for (const Field& f : {Field{"ranks", "-2147483649", "2147483648"},
                         Field{"attempts", "-2147483649", "2147483648"},
                         Field{"index", "-1", "18446744073709551616"},
                         Field{"length", "-1", "18446744073709551616"}}) {
    for (const char* text : {f.below_min, f.above_max, "1e300", "-1e300"}) {
      SCOPED_TRACE(std::string(f.name) + " = " + text);
      EXPECT_FALSE(
          parse_journal_line(with_field(entry, f.name, text)).has_value());
    }
  }
}

TEST(JournalIntegerFieldTest, BoundaryValuesFollowTheOneIntegerRule) {
  const JournalEntry entry{TaskKey{"A", "C", 4, TaskKind::kChain, 1, 2}, 0.5,
                           1, ""};
  struct Case {
    const char* text;
    bool fits_int;     // ranks, attempts
    bool fits_size_t;  // index, length
  };
  // A fraction is refused, never truncated: "ranks":4.9 once loaded as
  // ranks 4, the key of another task.
  for (const Case& c : {Case{"0", true, true}, Case{"1", true, true},
                        Case{"-1", true, false}, Case{"4.9", false, false},
                        Case{"2147483647", true, true},
                        Case{"2147483648", false, true},
                        Case{"9007199254740992", false, true},
                        Case{"1e300", false, false}}) {
    for (const char* name : {"ranks", "attempts", "index", "length"}) {
      SCOPED_TRACE(std::string(name) + " = " + c.text);
      const bool is_int = std::string(name) == "ranks" ||
                          std::string(name) == "attempts";
      const auto back = parse_journal_line(with_field(entry, name, c.text));
      ASSERT_EQ(back.has_value(), is_int ? c.fits_int : c.fits_size_t);
      if (!back.has_value()) continue;
      const std::string want = c.text;
      if (std::string(name) == "ranks") {
        EXPECT_EQ(std::to_string(back->key.ranks), want);
      } else if (std::string(name) == "attempts") {
        EXPECT_EQ(std::to_string(back->attempts), want);
      } else if (std::string(name) == "index") {
        EXPECT_EQ(std::to_string(back->key.index), want);
      } else {
        EXPECT_EQ(std::to_string(back->key.length), want);
      }
    }
  }
}

TEST(JournalIntegerFieldTest, EachFieldsRangeEndsRoundTrip) {
  constexpr int kIntMin = std::numeric_limits<int>::min();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  // The largest std::size_t a double holds exactly: 2^64 - 2^11.
  constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max() -
                                   std::size_t{2047};
  for (const JournalEntry& entry :
       {JournalEntry{TaskKey{"A", "C", kIntMin, TaskKind::kChain, 0, 0}, 0.5,
                     kIntMin, ""},
        JournalEntry{TaskKey{"A", "C", kIntMax, TaskKind::kChain, kSizeMax,
                             kSizeMax},
                     0.5, kIntMax, "boom"}}) {
    const std::string line = journal_line(entry);
    SCOPED_TRACE(line);
    const auto back = parse_journal_line(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->key, entry.key);
    EXPECT_EQ(back->attempts, entry.attempts);
    EXPECT_EQ(back->error, entry.error);
  }
}

TEST(TornJournalTest, MergeReportsTornTailAndStealsTheLostTask) {
  const CampaignSpec spec = synthetic_spec();
  const std::string serial = serial_csv(spec, nullptr, "torn_serial.csv");

  const std::string dir = fresh_dir("torn_merge");
  ShardOptions options;
  options.shards = 1;
  options.shard_id = 0;
  options.journal_dir = dir;
  const ShardResult r = run_shard(spec, options, 1);
  ASSERT_TRUE(r.complete());

  // Tear the final record in half, as a kill mid-write would.
  const std::string journal = shard_journal_path(dir, 0);
  std::string bytes = read_bytes(journal);
  const std::size_t last_start = bytes.rfind('{');
  ASSERT_NE(last_start, std::string::npos);
  const std::string torn =
      bytes.substr(0, last_start + (bytes.size() - last_start) / 2);
  {
    std::ofstream out(journal, std::ios::trunc | std::ios::binary);
    out << torn;
  }

  MergeOptions merge;
  merge.journal_dir = dir;
  MergeResult no_steal = merge_shards(spec, merge);
  EXPECT_EQ(no_steal.torn_tails, 1u);
  EXPECT_EQ(no_steal.missing.size(), 1u);
  ASSERT_EQ(no_steal.shard_stats.size(), 1u);
  EXPECT_TRUE(no_steal.shard_stats[0].torn_tail);

  merge.steal = true;
  merge.workers = 1;
  MergeResult stolen;
  const std::string csv = merged_csv(spec, merge, &stolen, "torn_merged.csv");
  EXPECT_EQ(stolen.tasks_stolen, 1u);
  EXPECT_TRUE(stolen.missing.empty());
  EXPECT_EQ(csv, serial);
}

// --- Bit-identical N-shard merges -------------------------------------------

TEST(ShardMergeTest, MergedDatabaseIsByteIdenticalForEveryShardCount) {
  const CampaignSpec spec = synthetic_spec();
  CampaignResult serial_result;
  const std::string serial = serial_csv(spec, &serial_result, "ident.csv");
  ASSERT_TRUE(serial_result.complete());

  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = fresh_dir("ident_" + std::to_string(shards));
    std::size_t assigned_total = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      ShardOptions options;
      options.shards = shards;
      options.shard_id = k;
      options.journal_dir = dir;
      const ShardResult r = run_shard(spec, options, 2);
      EXPECT_TRUE(r.complete());
      EXPECT_EQ(r.tasks_executed, r.tasks_assigned);
      assigned_total += r.tasks_assigned;
    }
    const CampaignPlan plan = plan_campaign(spec);
    EXPECT_EQ(assigned_total, plan.tasks.size()) << "partition must tile";

    MergeOptions merge;
    merge.journal_dir = dir;  // shard count comes from the manifest
    MergeResult merged;
    const std::string csv =
        merged_csv(spec, merge, &merged, "ident_m.csv");
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.shards, shards);
    EXPECT_EQ(merged.tasks_merged, plan.tasks.size());
    EXPECT_EQ(merged.duplicates, 0u);
    EXPECT_EQ(csv, serial);
  }
}

TEST(ShardMergeTest, KilledShardResumesAndMergesByteIdentical) {
  const CampaignSpec spec = synthetic_spec();
  const std::string serial = serial_csv(spec, nullptr, "resume.csv");
  const std::string dir = fresh_dir("resume_shards");

  for (std::size_t k = 0; k < 3; ++k) {
    ShardOptions options;
    options.shards = 3;
    options.shard_id = k;
    options.journal_dir = dir;
    if (k == 1) {
      CampaignSpec faulty = spec;
      faulty.faults.abort_after = 2;  // killed after two tasks
      EXPECT_THROW((void)run_shard(faulty, options, 1), CampaignAborted);
      continue;
    }
    EXPECT_TRUE(run_shard(spec, options, 1).complete());
  }

  // Before the resume the merge must refuse to pretend completeness.
  MergeOptions merge;
  merge.journal_dir = dir;
  const MergeResult partial = merge_shards(spec, merge);
  EXPECT_FALSE(partial.missing.empty());

  // Resume shard 1: journaled tasks replay, the rest execute.
  ShardOptions options;
  options.shards = 3;
  options.shard_id = 1;
  options.journal_dir = dir;
  const ShardResult resumed = run_shard(spec, options, 1);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.tasks_resumed, 2u);
  EXPECT_EQ(resumed.tasks_executed + resumed.tasks_resumed,
            resumed.tasks_assigned);

  MergeResult merged;
  const std::string csv = merged_csv(spec, merge, &merged, "resume_m.csv");
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(csv, serial);
}

TEST(ShardMergeTest, PeerShardStealsFromDeadShardByteIdentical) {
  const CampaignSpec spec = synthetic_spec();
  const std::string serial = serial_csv(spec, nullptr, "steal.csv");
  const std::string dir = fresh_dir("steal_shards");

  // Shard 1 dies mid-run and is never resumed.
  {
    ShardOptions options;
    options.shards = 3;
    options.shard_id = 1;
    options.journal_dir = dir;
    CampaignSpec faulty = spec;
    faulty.faults.abort_after = 2;
    EXPECT_THROW((void)run_shard(faulty, options, 1), CampaignAborted);
  }
  {
    ShardOptions options;
    options.shards = 3;
    options.shard_id = 0;
    options.journal_dir = dir;
    EXPECT_TRUE(run_shard(spec, options, 1).complete());
  }
  // Shard 2 finishes its own partition, notices shard 1's stale journal
  // (steal_after_s = 0: any incomplete journal counts) and backfills it.
  ShardOptions stealer;
  stealer.shards = 3;
  stealer.shard_id = 2;
  stealer.journal_dir = dir;
  stealer.steal = true;
  const ShardResult r = run_shard(spec, stealer, 1);
  EXPECT_TRUE(r.complete());
  EXPECT_GT(r.tasks_stolen, 0u);
  EXPECT_EQ(r.steal_scans, 1u);  // shard 0 is complete; only shard 1 scanned

  MergeOptions merge;
  merge.journal_dir = dir;
  MergeResult merged;
  const std::string csv = merged_csv(spec, merge, &merged, "steal_m.csv");
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(csv, serial);
  // Shard 1's own journal still holds the two tasks it finished before the
  // kill; the stealer re-executed only the remainder, so the owner's
  // records win and nothing overlaps.
  EXPECT_EQ(merged.duplicates, 0u);
  EXPECT_GT(merged.shard_stats[2].stolen_completed, 0u);
}

TEST(ShardMergeTest, FreshStealerWatermarkRespectsLiveJournals) {
  const CampaignSpec spec = synthetic_spec();
  const std::string dir = fresh_dir("watermark");
  {
    ShardOptions options;
    options.shards = 2;
    options.shard_id = 0;
    options.journal_dir = dir;
    CampaignSpec faulty = spec;
    faulty.faults.abort_after = 1;
    EXPECT_THROW((void)run_shard(faulty, options, 1), CampaignAborted);
  }
  // Shard 1 with a large steal_after_s: shard 0's journal was written
  // milliseconds ago, so it must be treated as live and NOT stolen from.
  ShardOptions options;
  options.shards = 2;
  options.shard_id = 1;
  options.journal_dir = dir;
  options.steal = true;
  options.steal_after_s = 3600.0;
  const ShardResult r = run_shard(spec, options, 1);
  EXPECT_EQ(r.tasks_stolen, 0u);
  EXPECT_EQ(r.steal_scans, 0u);

  // With the watermark at zero the same shard steals immediately.
  options.steal_after_s = 0.0;
  const ShardResult again = run_shard(spec, options, 1);
  EXPECT_GT(again.tasks_stolen, 0u);
}

TEST(ShardMergeTest, CoordinatorStealExecutesMissingPartitionByteIdentical) {
  const CampaignSpec spec = synthetic_spec();
  const std::string serial = serial_csv(spec, nullptr, "coord.csv");
  const std::string dir = fresh_dir("coord_steal");

  // Only shard 0 of 3 ever runs.
  ShardOptions options;
  options.shards = 3;
  options.shard_id = 0;
  options.journal_dir = dir;
  EXPECT_TRUE(run_shard(spec, options, 1).complete());

  MergeOptions merge;
  merge.journal_dir = dir;
  merge.steal = true;
  merge.workers = 2;
  MergeResult merged;
  const std::string csv = merged_csv(spec, merge, &merged, "coord_m.csv");
  EXPECT_TRUE(merged.complete());
  EXPECT_GT(merged.tasks_stolen, 0u);
  EXPECT_EQ(csv, serial);

  // The coordinator journaled its stolen work: a second merge (no steal)
  // resumes from coordinator.jsonl and still matches.
  MergeOptions again;
  again.journal_dir = dir;
  MergeResult remerged;
  const std::string csv2 = merged_csv(spec, again, &remerged, "coord_m2.csv");
  EXPECT_TRUE(remerged.complete());
  EXPECT_EQ(remerged.tasks_stolen, 0u);
  EXPECT_EQ(csv2, serial);
}

// --- Failed-task accounting through the merge --------------------------------

TEST(ShardMergeTest, FailureTableMatchesSingleProcessSemantics) {
  CampaignSpec spec = synthetic_spec();
  const CampaignPlan plan = plan_campaign(spec);
  // Deterministically fail a few tasks in both cells.
  for (std::size_t i = 0; i < plan.tasks.size(); i += 9) {
    spec.faults.injections.push_back(
        FaultInjection{plan.tasks[i].key, FaultKind::kConstructThrow});
  }
  ASSERT_FALSE(spec.faults.injections.empty());

  CampaignResult serial_result;
  const std::string serial = serial_csv(spec, &serial_result, "fail.csv");
  ASSERT_FALSE(serial_result.complete());

  const std::string dir = fresh_dir("fail_shards");
  for (std::size_t k = 0; k < 3; ++k) {
    ShardOptions options;
    options.shards = 3;
    options.shard_id = k;
    options.journal_dir = dir;
    (void)run_shard(spec, options, 2);
  }

  MergeOptions merge;
  merge.journal_dir = dir;
  MergeResult merged;
  const std::string csv = merged_csv(spec, merge, &merged, "fail_m.csv");

  // Failed tasks are failures, not missing: every task has a journal record.
  EXPECT_TRUE(merged.missing.empty());
  ASSERT_EQ(merged.result.failures.size(), serial_result.failures.size());
  for (std::size_t i = 0; i < serial_result.failures.size(); ++i) {
    EXPECT_EQ(merged.result.failures[i].key, serial_result.failures[i].key);
    EXPECT_EQ(merged.result.failures[i].attempts,
              serial_result.failures[i].attempts);
    EXPECT_EQ(merged.result.failures[i].what, serial_result.failures[i].what);
  }
  // Per-study NaN hole pattern matches too.
  ASSERT_EQ(merged.result.missing.size(), serial_result.missing.size());
  for (std::size_t s = 0; s < serial_result.missing.size(); ++s) {
    EXPECT_EQ(merged.result.missing[s], serial_result.missing[s]);
  }
  // And the recorded database (which skips NaN markers) is byte-identical.
  EXPECT_EQ(csv, serial);

  // A stealing peer must not re-execute owner-journaled failures: they
  // already exhausted their retry budget.
  ShardOptions stealer;
  stealer.shards = 3;
  stealer.shard_id = 0;
  stealer.journal_dir = dir;
  stealer.steal = true;
  const ShardResult r = run_shard(spec, stealer, 1);
  EXPECT_EQ(r.tasks_stolen, 0u);
}

// --- Guard rails -------------------------------------------------------------

TEST(ShardGuardTest, OptionValidation) {
  const CampaignSpec spec = synthetic_spec();
  ShardOptions options;
  options.shards = 2;
  options.shard_id = 2;
  options.journal_dir = fresh_dir("guard");
  EXPECT_THROW((void)run_shard(spec, options, 1), std::invalid_argument);
  options.shard_id = 0;
  options.journal_dir = "";
  EXPECT_THROW((void)run_shard(spec, options, 1), std::invalid_argument);
  options.journal_dir = fresh_dir("guard");
  CampaignSpec journaled = synthetic_spec();
  journaled.journal_path = options.journal_dir + "/own.jsonl";
  EXPECT_THROW((void)run_shard(journaled, options, 1), std::invalid_argument);
}

TEST(ShardGuardTest, MismatchedShardCountsAreRejected) {
  const CampaignSpec spec = synthetic_spec();
  const std::string dir = fresh_dir("mismatch");
  ShardOptions options;
  options.shards = 3;
  options.shard_id = 0;
  options.journal_dir = dir;
  ASSERT_TRUE(run_shard(spec, options, 1).complete());
  EXPECT_EQ(read_shard_count(dir), 3u);

  // A shard launched with a different --shards would partition differently.
  ShardOptions wrong;
  wrong.shards = 4;
  wrong.shard_id = 1;
  wrong.journal_dir = dir;
  EXPECT_THROW((void)run_shard(spec, wrong, 1), std::runtime_error);

  // So would a merge with a contradicting explicit count...
  MergeOptions merge;
  merge.journal_dir = dir;
  merge.shards = 4;
  EXPECT_THROW((void)merge_shards(spec, merge), std::invalid_argument);

  // ...and a merge over a directory with no journals at all.
  MergeOptions empty;
  empty.journal_dir = fresh_dir("mismatch_empty");
  empty.shards = 2;
  EXPECT_THROW((void)merge_shards(spec, empty), std::runtime_error);
}

TEST(ShardGuardTest, ShardPublishesItsMetrics) {
  const CampaignSpec spec = synthetic_spec();
  const std::string dir = fresh_dir("metrics");
  ShardOptions options;
  options.shards = 2;
  options.shard_id = 0;
  options.journal_dir = dir;
  obs::MetricsRegistry registry;
  const ShardResult r = run_shard(spec, options, 1, &registry);
  ASSERT_TRUE(r.complete());
  const obs::MetricsSnapshot snap = registry.snapshot();
  auto counter = [&snap](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return UINT64_C(0xdead);
  };
  EXPECT_EQ(counter("campaign.shard.count"), 2u);
  EXPECT_EQ(counter("campaign.shard.tasks_assigned"), r.tasks_assigned);
  EXPECT_EQ(counter("campaign.tasks_executed"), r.tasks_executed);
  EXPECT_EQ(r.metrics.tasks_executed, r.tasks_executed);
}

}  // namespace
}  // namespace kcoup::campaign

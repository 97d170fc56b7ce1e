// Fault-injection matrix and checkpoint/resume tests for the campaign
// executor: every injection kind at every worker count, seeded-selection
// determinism, and the kill-then-resume round trip through the JSONL task
// journal.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/faultsim.hpp"
#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/sp/sp_model.hpp"

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
};

/// Counts live instances so the matrix can prove no handle leaks under any
/// fault kind.
struct CountedOwner {
  inline static std::atomic<int> live{0};
  SyntheticApp inner;
  explicit CountedOwner(std::size_t loop_size, double scale)
      : inner(loop_size, scale) {
    ++live;
  }
  ~CountedOwner() { --live; }
  [[nodiscard]] const coupling::LoopApplication& app() const {
    return inner.app;
  }
};

CampaignStudy counted_cell(const std::string& name, int ranks,
                           std::size_t loop_size, double scale) {
  CampaignStudy cell;
  cell.application = name;
  cell.config = "C";
  cell.ranks = ranks;
  cell.factory = [loop_size, scale] {
    return own_app(std::make_unique<CountedOwner>(loop_size, scale));
  };
  return cell;
}

/// Two synthetic cells, chains {2, 3}: 2 x (1 actual + 4 isolated + 8
/// chains) = 26 planned tasks, cheap enough for a big matrix.
CampaignSpec synthetic_spec() {
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  spec.studies.push_back(counted_cell("A", 1, 4, 1.0));
  spec.studies.push_back(counted_cell("B", 4, 4, 2.0));
  return spec;
}

/// One modeled-NPB cell (BT class S, 4 ranks) for end-to-end realism.
CampaignSpec npb_spec() {
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  CampaignSpec spec;
  spec.chain_lengths = {2};
  CampaignStudy bt;
  bt.application = "BT";
  bt.config = "S";
  bt.ranks = 4;
  bt.factory = [cfg] {
    return own_app(npb::bt::make_modeled_bt(npb::ProblemClass::kS, 4, cfg));
  };
  spec.studies.push_back(std::move(bt));
  return spec;
}

void expect_identical(const coupling::StudyResult& a,
                      const coupling::StudyResult& b) {
  EXPECT_EQ(a.actual_s, b.actual_s);
  EXPECT_EQ(a.isolated_means, b.isolated_means);
  EXPECT_EQ(a.prologue_s, b.prologue_s);
  EXPECT_EQ(a.epilogue_s, b.epilogue_s);
  EXPECT_EQ(a.summation_s, b.summation_s);
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  for (std::size_t i = 0; i < a.by_length.size(); ++i) {
    ASSERT_EQ(a.by_length[i].chains.size(), b.by_length[i].chains.size());
    for (std::size_t c = 0; c < a.by_length[i].chains.size(); ++c) {
      EXPECT_EQ(a.by_length[i].chains[c].chain_time,
                b.by_length[i].chains[c].chain_time);
      EXPECT_EQ(a.by_length[i].chains[c].isolated_sum,
                b.by_length[i].chains[c].isolated_sum);
    }
  }
}

/// A few explicit injection targets spread across both cells.
std::vector<TaskKey> injection_targets(const CampaignPlan& plan) {
  std::vector<TaskKey> targets;
  for (std::size_t i = 0; i < plan.tasks.size(); i += 7) {
    targets.push_back(plan.tasks[i].key);
  }
  return targets;
}

/// Path helper for journal files; gtest's TempDir is writable and per-run.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// --- The fault matrix --------------------------------------------------------

TEST(CampaignFaultMatrixTest, EveryKindWorkersPoolingCombination) {
  CampaignSpec base = synthetic_spec();
  const CampaignPlan plan = plan_campaign(base);
  const std::vector<TaskKey> targets = injection_targets(plan);
  ASSERT_FALSE(targets.empty());
  const std::set<TaskKey> target_set(targets.begin(), targets.end());

  const CampaignResult clean = run_campaign(base, 1);
  ASSERT_TRUE(clean.complete());

  for (const FaultKind kind :
       {FaultKind::kConstructThrow, FaultKind::kMeasureThrow,
        FaultKind::kNoiseSpike}) {
    CampaignSpec spec = base;
    for (const TaskKey& key : targets) {
      spec.faults.injections.push_back(FaultInjection{key, kind});
    }
    if (kind == FaultKind::kNoiseSpike) {
      // A noise spike alone is not fatal: it widens the spread, trips the
      // retry threshold, and the merged retries succeed.
      spec.retry.max_relative_stddev = 0.05;
      spec.retry.max_attempts = 3;
    }
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(to_string(kind)) +
                   " workers=" + std::to_string(workers));
      const CampaignResult result = run_campaign(spec, workers);
      EXPECT_EQ(CountedOwner::live.load(), 0) << "leaked handles";

      if (kind == FaultKind::kNoiseSpike) {
        EXPECT_TRUE(result.complete());
        EXPECT_EQ(result.metrics.tasks_failed, 0u);
        EXPECT_GT(result.metrics.tasks_retried, 0u);
        continue;
      }

      // Throw kinds: exactly the targeted tasks fail, nothing else.
      EXPECT_FALSE(result.complete());
      ASSERT_EQ(result.failures.size(), targets.size());
      std::set<TaskKey> failed;
      for (const TaskFailure& f : result.failures) {
        failed.insert(f.key);
        EXPECT_EQ(f.attempts, spec.retry.max_attempts) << to_string(f.key);
        EXPECT_NE(f.what.find(to_string(kind)), std::string::npos)
            << f.what;
      }
      EXPECT_EQ(failed, target_set);
      EXPECT_EQ(result.metrics.tasks_failed, targets.size());

      // Unfaulted isolated means stay bit-identical to the clean run.
      for (std::size_t s = 0; s < clean.studies.size(); ++s) {
        const CampaignStudy& cell = base.studies[s];
        for (std::size_t k = 0;
             k < clean.studies[s].isolated_means.size(); ++k) {
          const TaskKey key{cell.application, cell.config, cell.ranks,
                            TaskKind::kChain, k, 1};
          if (target_set.count(key)) {
            EXPECT_TRUE(std::isnan(result.studies[s].isolated_means[k]));
          } else {
            EXPECT_EQ(result.studies[s].isolated_means[k],
                      clean.studies[s].isolated_means[k]);
          }
        }
      }
    }
  }
}

TEST(CampaignFaultMatrixTest, SeededSelectionIsIdenticalAcrossExecutions) {
  CampaignSpec spec = synthetic_spec();
  spec.faults.seed = 0xc0ffee;
  spec.faults.measure_throw_rate = 0.3;
  spec.faults.construct_throw_rate = 0.15;

  const CampaignPlan plan = plan_campaign(spec);
  const FaultSimulator sim(spec.faults);
  const std::vector<TaskKey> expected = sim.faulted_keys(plan.tasks);
  ASSERT_FALSE(expected.empty()) << "seed produced no faults; pick another";
  ASSERT_LT(expected.size(), plan.tasks.size())
      << "seed faulted everything; pick another";

  for (const std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const CampaignResult result = run_campaign(spec, workers);
    std::vector<TaskKey> failed;
    for (const TaskFailure& f : result.failures) failed.push_back(f.key);
    EXPECT_EQ(failed, expected);
  }
}

TEST(CampaignFaultMatrixTest, DifferentSeedsPickDifferentTasks) {
  CampaignSpec spec = synthetic_spec();
  spec.faults.measure_throw_rate = 0.4;
  const CampaignPlan plan = plan_campaign(spec);

  std::set<std::vector<TaskKey>> selections;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    FaultPlan fp = spec.faults;
    fp.seed = seed;
    selections.insert(FaultSimulator(fp).faulted_keys(plan.tasks));
  }
  EXPECT_GT(selections.size(), 1u)
      << "every seed selected the same fault set";
}

TEST(CampaignFaultMatrixTest, NpbCampaignSurvivesInjectedFaults) {
  CampaignSpec spec = npb_spec();
  spec.retry.max_attempts = 2;
  spec.faults.seed = 7;
  spec.faults.measure_throw_rate = 0.25;

  const CampaignPlan plan = plan_campaign(spec);
  const std::size_t doomed =
      FaultSimulator(spec.faults).faulted_keys(plan.tasks).size();
  ASSERT_GT(doomed, 0u);

  const CampaignResult result = run_campaign(spec, 4);
  EXPECT_EQ(result.failures.size(), doomed);
  EXPECT_EQ(result.metrics.tasks_failed, doomed);
  // Partial results propagate NaN without crashing the analysis layer.
  ASSERT_EQ(result.studies.size(), 1u);
  EXPECT_EQ(result.missing[0].empty(), false);
}

// --- Journal round trip ------------------------------------------------------

TEST(JournalTest, LineRoundTripsBitExactDoubles) {
  const JournalEntry entry{
      TaskKey{"BT", "S", 4, TaskKind::kChain, 2, 3},
      0.1234567890123456789, 2, ""};
  const auto parsed = parse_journal_line(journal_line(entry));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, entry.key);
  EXPECT_EQ(parsed->value, entry.value);  // exact, not approximate
  EXPECT_EQ(parsed->attempts, entry.attempts);
}

TEST(JournalTest, LoaderSkipsTruncatedTail) {
  const JournalEntry good{TaskKey{"A", "C", 1, TaskKind::kActual, 0, 0},
                          3.5, 1, ""};
  const std::string full = journal_line(good);
  std::istringstream in(full + "\n" + full.substr(0, full.size() / 2));
  const auto loaded = load_journal(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(good.key), 3.5);
}

TEST(JournalTest, LoaderToleratesGarbageAndBlankLines) {
  const JournalEntry good{TaskKey{"A", "C", 1, TaskKind::kPrologue, 1, 0},
                          0.25, 1, ""};
  std::istringstream in("\nnot json\n{\"half\": true\n" +
                        journal_line(good) + "\n{}\n");
  const auto loaded = load_journal(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(good.key), 0.25);
}

TEST(JournalTest, DuplicateKeysKeepTheLastValue) {
  const TaskKey key{"A", "C", 1, TaskKind::kChain, 0, 2};
  std::istringstream in(journal_line(JournalEntry{key, 1.0, 1, ""}) + "\n" +
                        journal_line(JournalEntry{key, 2.0, 1, ""}) + "\n");
  const auto loaded = load_journal(in);
  EXPECT_EQ(loaded.at(key), 2.0);
}

// --- Kill / resume -----------------------------------------------------------

TEST(CampaignResumeTest, KilledCampaignResumesWithoutReexecution) {
  const std::string journal = temp_path("kcoup_resume_test.jsonl");
  std::remove(journal.c_str());

  CampaignSpec spec = synthetic_spec();
  const CampaignPlan plan = plan_campaign(spec);
  const std::size_t total = plan.tasks.size();
  const std::size_t survive = total / 2;
  ASSERT_GT(survive, 0u);

  // Uninterrupted reference, no journal involved.
  const CampaignResult reference = run_campaign(spec, 1);
  ASSERT_TRUE(reference.complete());

  // Run 1: crash mid-sweep after `survive` tasks.  Serial, so exactly that
  // many tasks completed and were journaled.
  spec.journal_path = journal;
  spec.faults.abort_after = survive;
  EXPECT_THROW((void)run_campaign(spec, 1), CampaignAborted);
  EXPECT_EQ(CountedOwner::live.load(), 0) << "crash leaked handles";
  {
    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    EXPECT_EQ(load_journal(in).size(), survive);
  }

  // Run 2: same spec, crash disabled — resumes from the journal.
  spec.faults.abort_after = 0;
  const CampaignResult resumed = run_campaign(spec, 1);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.metrics.journal_hits, survive);
  EXPECT_EQ(resumed.metrics.tasks_executed, total - survive);

  // The resumed campaign's results are bit-identical to never crashing.
  ASSERT_EQ(resumed.studies.size(), reference.studies.size());
  for (std::size_t s = 0; s < reference.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(resumed.studies[s], reference.studies[s]);
  }

  // Run 3: everything is journaled now; nothing executes.
  const CampaignResult third = run_campaign(spec, 1);
  EXPECT_EQ(third.metrics.journal_hits, total);
  EXPECT_EQ(third.metrics.tasks_executed, 0u);
  for (std::size_t s = 0; s < reference.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(third.studies[s], reference.studies[s]);
  }
  std::remove(journal.c_str());
}

TEST(CampaignResumeTest, ConcurrentCrashJournalsOnlyCompletedTasks) {
  const std::string journal = temp_path("kcoup_resume_mt_test.jsonl");
  std::remove(journal.c_str());

  CampaignSpec spec = synthetic_spec();
  const CampaignPlan plan = plan_campaign(spec);
  const std::size_t total = plan.tasks.size();

  const CampaignResult reference = run_campaign(spec, 1);

  spec.journal_path = journal;
  spec.faults.abort_after = total / 3;
  EXPECT_THROW((void)run_campaign(spec, 4), CampaignAborted);
  EXPECT_EQ(CountedOwner::live.load(), 0);

  // Workers that had started before the abort still finish their task, so
  // the journal holds at least abort_after entries and every line parses.
  std::size_t journaled = 0;
  {
    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
      EXPECT_TRUE(parse_journal_line(line).has_value()) << line;
      ++journaled;
    }
  }
  EXPECT_GE(journaled, spec.faults.abort_after);
  EXPECT_LT(journaled, total);

  // Resume concurrently; the journaled tasks are not re-executed.
  spec.faults.abort_after = 0;
  const CampaignResult resumed = run_campaign(spec, 4);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.metrics.journal_hits, journaled);
  EXPECT_EQ(resumed.metrics.tasks_executed, total - journaled);
  for (std::size_t s = 0; s < reference.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(resumed.studies[s], reference.studies[s]);
  }
  std::remove(journal.c_str());
}

TEST(CampaignResumeTest, JournalWithNoFaultsIsBitIdenticalToPlainRun) {
  const std::string journal = temp_path("kcoup_journal_nofault_test.jsonl");
  std::remove(journal.c_str());

  CampaignSpec spec = synthetic_spec();
  const CampaignResult plain = run_campaign(spec, 2);

  spec.journal_path = journal;
  const CampaignResult journaled = run_campaign(spec, 2);
  ASSERT_EQ(plain.studies.size(), journaled.studies.size());
  for (std::size_t s = 0; s < plain.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(plain.studies[s], journaled.studies[s]);
  }
  std::remove(journal.c_str());
}

// --- Fault simulator unit checks ---------------------------------------------

TEST(FaultSimulatorTest, RateZeroSelectsNothingRateOneSelectsEverything) {
  const CampaignPlan plan = plan_campaign(synthetic_spec());
  FaultPlan none;
  none.seed = 42;
  EXPECT_TRUE(FaultSimulator(none).faulted_keys(plan.tasks).empty());

  FaultPlan all;
  all.seed = 42;
  all.measure_throw_rate = 1.0;
  EXPECT_EQ(FaultSimulator(all).faulted_keys(plan.tasks).size(),
            plan.tasks.size());
}

TEST(FaultSimulatorTest, KindsSelectIndependently) {
  // The same seed must not couple the three kinds: salt separation means a
  // task picked for construct faults is not automatically picked for
  // measure faults.
  const CampaignPlan plan = plan_campaign(synthetic_spec());
  FaultPlan fp;
  fp.seed = 99;
  fp.construct_throw_rate = 0.5;
  fp.measure_throw_rate = 0.5;
  const FaultSimulator sim(fp);
  bool differ = false;
  for (const MeasurementTask& t : plan.tasks) {
    if (sim.construct_throws(t.key) != sim.measure_throws(t.key)) {
      differ = true;
      break;
    }
  }
  EXPECT_TRUE(differ) << "construct and measure selections are identical";
}

TEST(FaultSimulatorTest, AbortFiresExactlyOnceAfterThreshold) {
  FaultPlan fp;
  fp.abort_after = 3;
  FaultSimulator sim(fp);
  EXPECT_NO_THROW(sim.maybe_abort());
  EXPECT_NO_THROW(sim.maybe_abort());
  EXPECT_NO_THROW(sim.maybe_abort());
  EXPECT_THROW(sim.maybe_abort(), CampaignAborted);
}

}  // namespace
}  // namespace kcoup::campaign

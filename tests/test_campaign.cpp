// Tests for the campaign subsystem: the deduplicating planner, the
// concurrent executor's determinism against the serial path, retry and
// cache-hit behaviour, and the text spec parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <locale>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/planner.hpp"
#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/sp/sp_model.hpp"

namespace kcoup::campaign {
namespace {

// --- Synthetic applications --------------------------------------------------

/// A self-contained loop application over deterministic callable kernels.
/// Kernel k costs (k+1) * scale seconds per invocation.
struct SyntheticApp {
  std::vector<std::unique_ptr<coupling::CallableKernel>> kernels;
  coupling::LoopApplication app;

  explicit SyntheticApp(std::size_t loop_size, double scale) {
    app.name = "synthetic";
    app.iterations = 3;
    for (std::size_t k = 0; k < loop_size; ++k) {
      kernels.push_back(std::make_unique<coupling::CallableKernel>(
          "k" + std::to_string(k),
          [k, scale] { return static_cast<double>(k + 1) * scale; }));
      app.loop.push_back(kernels.back().get());
    }
  }
};

/// Adapter so own_app() finds an `app()` accessor.
struct SyntheticOwner {
  SyntheticApp inner;
  SyntheticOwner(std::size_t loop_size, double scale)
      : inner(loop_size, scale) {}
  [[nodiscard]] const coupling::LoopApplication& app() const {
    return inner.app;
  }
};

AppFactory synthetic_factory(std::size_t loop_size, double scale) {
  return [loop_size, scale] {
    return own_app(std::make_unique<SyntheticOwner>(loop_size, scale));
  };
}

CampaignStudy synthetic_cell(const std::string& name, int ranks,
                             std::size_t loop_size, double scale) {
  CampaignStudy cell;
  cell.application = name;
  cell.config = "C";
  cell.ranks = ranks;
  cell.factory = synthetic_factory(loop_size, scale);
  return cell;
}

// --- Planner -----------------------------------------------------------------

TEST(PlannerTest, DeduplicatesSharedTasksAcrossChainLengths) {
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  spec.studies.push_back(synthetic_cell("B", 1, 3, 2.0));
  spec.chain_lengths = {2, 3};

  const CampaignPlan plan = plan_campaign(spec);
  // Naive: per cell and per chain length, 3 isolated + 3 chains + 1 actual.
  EXPECT_EQ(plan.tasks_requested, 2u * 2u * (3u + 3u + 1u));
  // Planned: per cell, 3 isolated + 1 actual once, plus 3 chains per length.
  EXPECT_EQ(plan.tasks.size(), 2u * (3u + 1u + 2u * 3u));
  EXPECT_EQ(plan.tasks_deduplicated,
            plan.tasks_requested - plan.tasks.size());
  EXPECT_EQ(plan.cache_hits, 0u);
}

TEST(PlannerTest, ChainLengthOneSharesIsolatedMeasurements) {
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 4, 1.0));
  spec.chain_lengths = {1, 2};

  const CampaignPlan plan = plan_campaign(spec);
  // q=1 chains ARE the isolated measurements: 4 isolated + 1 actual + 4
  // q=2 chains.
  EXPECT_EQ(plan.tasks.size(), 4u + 1u + 4u);
  EXPECT_EQ(plan.tasks_requested, 2u * (4u + 4u + 1u));
}

TEST(PlannerTest, DuplicateCellsCollapseToOneMeasurementSet) {
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));  // same triple
  spec.chain_lengths = {2};

  const CampaignPlan plan = plan_campaign(spec);
  EXPECT_EQ(plan.tasks.size(), 3u + 1u + 3u);
  EXPECT_EQ(plan.shapes.size(), 2u);
}

TEST(PlannerTest, DatabaseHitsBecomeCacheEntries) {
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  spec.chain_lengths = {2};

  coupling::CouplingDatabase db;
  db.record(coupling::CouplingRecord{coupling::CouplingKey{"A", "C", 1, 2, 1},
                                     4.25, 5.0});

  const CampaignPlan plan = plan_campaign(spec, &db);
  EXPECT_EQ(plan.cache_hits, 1u);
  EXPECT_EQ(plan.tasks.size(), 3u + 1u + 3u - 1u);
  const TaskKey key{"A", "C", 1, TaskKind::kChain, 1, 2};
  ASSERT_TRUE(plan.cached.count(key));
  EXPECT_DOUBLE_EQ(plan.cached.at(key), 4.25);

  // The cached chain time flows into the assembled result.
  const CampaignResult result = execute_plan(spec, plan, 1);
  EXPECT_DOUBLE_EQ(result.studies[0].by_length[0].chains[1].chain_time, 4.25);
  EXPECT_EQ(result.metrics.cache_hits, 1u);
}

TEST(PlannerTest, RejectsInvalidChainLengths) {
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  spec.chain_lengths = {4};
  EXPECT_THROW(plan_campaign(spec), std::invalid_argument);
  spec.chain_lengths = {0};
  EXPECT_THROW(plan_campaign(spec), std::invalid_argument);
}

TEST(PlannerTest, RejectsARepeatedChainLength) {
  // {2, 2} would measure and print every q=2 coupling twice.
  CampaignSpec spec;
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  spec.chain_lengths = {2, 3, 2};
  try {
    (void)plan_campaign(spec);
    FAIL() << "a repeated chain length was planned";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "plan_campaign: chain length 2 given twice");
  }
  // run_study plans through the same planner.
  const SyntheticApp app(3, 1.0);
  EXPECT_THROW((void)coupling::run_study(app.app, {{1, 1}, {}}),
               std::invalid_argument);
}

TEST(PlannerTest, RejectsMissingFactory) {
  CampaignSpec spec;
  CampaignStudy cell;
  cell.application = "A";
  spec.studies.push_back(std::move(cell));
  EXPECT_THROW(plan_campaign(spec), std::invalid_argument);
}

// --- Executor determinism ----------------------------------------------------

void expect_identical(const coupling::StudyResult& a,
                      const coupling::StudyResult& b) {
  EXPECT_EQ(a.actual_s, b.actual_s);
  EXPECT_EQ(a.isolated_means, b.isolated_means);
  EXPECT_EQ(a.prologue_s, b.prologue_s);
  EXPECT_EQ(a.epilogue_s, b.epilogue_s);
  EXPECT_EQ(a.summation_s, b.summation_s);
  EXPECT_EQ(a.summation_error, b.summation_error);
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  for (std::size_t i = 0; i < a.by_length.size(); ++i) {
    const coupling::ChainLengthResult& x = a.by_length[i];
    const coupling::ChainLengthResult& y = b.by_length[i];
    EXPECT_EQ(x.length, y.length);
    EXPECT_EQ(x.coefficients, y.coefficients);
    EXPECT_EQ(x.prediction_s, y.prediction_s);
    EXPECT_EQ(x.relative_error, y.relative_error);
    ASSERT_EQ(x.chains.size(), y.chains.size());
    for (std::size_t c = 0; c < x.chains.size(); ++c) {
      EXPECT_EQ(x.chains[c].start, y.chains[c].start);
      EXPECT_EQ(x.chains[c].length, y.chains[c].length);
      EXPECT_EQ(x.chains[c].members, y.chains[c].members);
      EXPECT_EQ(x.chains[c].label, y.chains[c].label);
      EXPECT_EQ(x.chains[c].chain_time, y.chains[c].chain_time);
      EXPECT_EQ(x.chains[c].isolated_sum, y.chains[c].isolated_sum);
    }
  }
}

/// {BT, SP} x {1, 4} ranks x chain lengths {2, 3} on modeled class-S apps.
CampaignSpec npb_campaign_spec() {
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  for (int ranks : {1, 4}) {
    CampaignStudy bt;
    bt.application = "BT";
    bt.config = "S";
    bt.ranks = ranks;
    bt.factory = [ranks, cfg] {
      return own_app(
          npb::bt::make_modeled_bt(npb::ProblemClass::kS, ranks, cfg));
    };
    spec.studies.push_back(std::move(bt));

    CampaignStudy sp;
    sp.application = "SP";
    sp.config = "S";
    sp.ranks = ranks;
    sp.factory = [ranks, cfg] {
      return own_app(
          npb::sp::make_modeled_sp(npb::ProblemClass::kS, ranks, cfg));
    };
    spec.studies.push_back(std::move(sp));
  }
  return spec;
}

/// Serial reference: one run_study() per cell, exactly the pre-campaign
/// workflow.
std::vector<coupling::StudyResult> serial_reference(const CampaignSpec& spec) {
  std::vector<coupling::StudyResult> out;
  coupling::StudyOptions options;
  options.chain_lengths = spec.chain_lengths;
  options.measurement = spec.measurement;
  for (const CampaignStudy& cell : spec.studies) {
    const AppHandle handle = cell.factory();
    out.push_back(coupling::run_study(handle.app(), options));
  }
  return out;
}

TEST(CampaignMultiWorkerTest, ResultsBitIdenticalToSerialLoop) {
  const CampaignSpec spec = npb_campaign_spec();
  const std::vector<coupling::StudyResult> expected = serial_reference(spec);

  for (std::size_t workers : {1u, 2u, 8u}) {
    const CampaignResult result = run_campaign(spec, workers);
    ASSERT_EQ(result.studies.size(), expected.size()) << workers << " workers";
    for (std::size_t s = 0; s < expected.size(); ++s) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " study=" + std::to_string(s));
      expect_identical(result.studies[s], expected[s]);
    }
    EXPECT_GT(result.metrics.tasks_deduplicated, 0u);
    EXPECT_EQ(result.metrics.cache_hits, 0u);
  }
}

TEST(CampaignMultiWorkerTest, DatabaseRoundTripKeepsResultsIdentical) {
  const CampaignSpec spec = npb_campaign_spec();
  coupling::CouplingDatabase db;

  const CampaignResult first = run_campaign(spec, 4, &db);
  EXPECT_GT(db.size(), 0u);

  // Second run serves every chain from the database and still assembles the
  // exact same results (the measurements are deterministic).
  const CampaignResult second = run_campaign(spec, 4, &db);
  EXPECT_GT(second.metrics.cache_hits, 0u);
  EXPECT_LT(second.metrics.tasks_executed, first.metrics.tasks_executed);
  ASSERT_EQ(first.studies.size(), second.studies.size());
  for (std::size_t s = 0; s < first.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(first.studies[s], second.studies[s]);
  }
}

TEST(CampaignMultiWorkerTest, PoolingOnOrOffIsBitIdenticalToSerial) {
  // Four cells (sliced at 8 workers), one cell (sliced at every worker
  // count above 1), and four cells plus a duplicate of the first, whose
  // tasks the planner folds into the original's.
  CampaignSpec four = npb_campaign_spec();
  CampaignSpec one = four;
  one.studies.resize(1);
  CampaignSpec duplicated = four;
  duplicated.studies.push_back(duplicated.studies.front());

  for (const CampaignSpec* spec : {&four, &one, &duplicated}) {
    const std::vector<coupling::StudyResult> expected =
        serial_reference(*spec);
    for (std::size_t workers : {1u, 2u, 3u, 8u}) {
      const CampaignResult result = run_campaign(*spec, workers);
      ASSERT_EQ(result.studies.size(), expected.size());
      EXPECT_EQ(result.metrics.handles_created + result.metrics.handles_reused,
                result.metrics.tasks_executed);
      for (std::size_t s = 0; s < expected.size(); ++s) {
        SCOPED_TRACE("cells=" + std::to_string(spec->studies.size()) +
                     " workers=" + std::to_string(workers) +
                     " study=" + std::to_string(s));
        expect_identical(result.studies[s], expected[s]);
      }
    }
  }
}

TEST(CampaignMultiWorkerTest, EachCellIsBuiltOnce) {
  // With at least as many cells as workers, a worker claims whole cells and
  // runs each one's tasks on a single instance: one build per cell, however
  // the claims interleave.
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  for (int cell = 0; cell < 8; ++cell) {
    spec.studies.push_back(synthetic_cell("C" + std::to_string(cell), 1, 4,
                                          1.0 + 0.5 * cell));
  }
  for (std::size_t workers : {2u, 3u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const CampaignResult result = run_campaign(spec, workers);
    EXPECT_EQ(result.metrics.handles_created, spec.studies.size());
    EXPECT_EQ(result.metrics.handles_created + result.metrics.handles_reused,
              result.metrics.tasks_executed);
  }
}

TEST(CampaignMultiWorkerTest, HandlePoolMetricsAccountForEveryTask) {
  CampaignSpec spec;
  spec.chain_lengths = {2};
  spec.studies.push_back(synthetic_cell("A", 1, 4, 1.0));
  spec.studies.push_back(synthetic_cell("B", 1, 4, 2.0));

  // Every task either created a handle or reused one, and each (worker,
  // cell) pair creates at most one handle.
  for (std::size_t workers : {1u, 3u}) {
    const CampaignResult result = run_campaign(spec, workers);
    EXPECT_EQ(result.metrics.handles_created + result.metrics.handles_reused,
              result.metrics.tasks_executed);
    EXPECT_GE(result.metrics.handles_created, spec.studies.size());
    EXPECT_LE(result.metrics.handles_created,
              result.metrics.workers * spec.studies.size());
    EXPECT_GT(result.metrics.handles_reused, 0u);
  }
}

TEST(CampaignMultiWorkerTest, TaskTimeMetricsAreCoherent) {
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  spec.studies.push_back(synthetic_cell("A", 1, 4, 1.0));
  const CampaignResult result = run_campaign(spec, 2);
  EXPECT_GE(result.metrics.task_min_s, 0.0);
  EXPECT_GE(result.metrics.task_mean_s, result.metrics.task_min_s);
  EXPECT_GE(result.metrics.task_max_s, result.metrics.task_mean_s);
}

// --- Executor error path -----------------------------------------------------

/// Counts live instances so tests can prove the executor releases every
/// instance it builds — success or error.
struct CountedOwner {
  inline static std::atomic<int> live{0};
  SyntheticApp inner;
  explicit CountedOwner(std::size_t loop_size) : inner(loop_size, 1.0) {
    ++live;
  }
  ~CountedOwner() { --live; }
  [[nodiscard]] const coupling::LoopApplication& app() const {
    return inner.app;
  }
};

TEST(CampaignErrorTest, ThrowingFactoryIsolatesEveryTaskAndLeaksNoHandles) {
  // The factory succeeds while the planner captures study shapes, then
  // throws for every executor acquisition.  The campaign must complete
  // anyway: every task exhausts the retry budget and is recorded as a
  // failure, every derived value is NaN, and nothing leaks.
  auto calls = std::make_shared<std::atomic<int>>(0);
  CampaignSpec spec;
  spec.chain_lengths = {2};
  spec.retry.max_attempts = 2;
  CampaignStudy cell;
  cell.application = "BOOM";
  cell.config = "C";
  cell.ranks = 1;
  cell.factory = [calls] {
    if (calls->fetch_add(1) >= 1) {
      throw std::runtime_error("factory exploded");
    }
    return own_app(std::make_unique<CountedOwner>(3));
  };
  spec.studies.push_back(std::move(cell));

  for (std::size_t workers : {1u, 4u}) {
    calls->store(0);
    const CampaignResult result = run_campaign(spec, workers);
    EXPECT_EQ(CountedOwner::live.load(), 0)
        << workers << " workers leaked handles";
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.failures.size(), result.metrics.tasks_executed);
    EXPECT_EQ(result.metrics.tasks_failed, result.failures.size());
    for (const TaskFailure& f : result.failures) {
      EXPECT_EQ(f.attempts, 2) << to_string(f.key);
      EXPECT_EQ(f.what, "factory exploded");
    }
    EXPECT_TRUE(std::isnan(result.studies[0].actual_s));
    for (double m : result.studies[0].isolated_means) {
      EXPECT_TRUE(std::isnan(m));
    }
    EXPECT_EQ(result.missing[0].size(), result.metrics.tasks_executed);
  }
}

TEST(CampaignErrorTest, MidCampaignFactoryFailureKeepsGoodCellsIntact) {
  // Several cells; one cell's factory throws on every executor call.  The
  // good cells must finish with their exact fault-free values, the bad
  // cell's failures must be isolated to it, and every handle released.
  auto calls = std::make_shared<std::atomic<int>>(0);
  CampaignSpec spec;
  spec.chain_lengths = {2};
  for (int i = 0; i < 3; ++i) {
    CampaignStudy good;
    good.application = "GOOD" + std::to_string(i);
    good.config = "C";
    good.ranks = 1;
    good.factory = [] { return own_app(std::make_unique<CountedOwner>(3)); };
    spec.studies.push_back(std::move(good));
  }
  CampaignStudy bad;
  bad.application = "BAD";
  bad.config = "C";
  bad.ranks = 1;
  bad.factory = [calls] {
    if (calls->fetch_add(1) >= 1) {
      throw std::runtime_error("mid-campaign failure");
    }
    return own_app(std::make_unique<CountedOwner>(3));
  };
  spec.studies.push_back(std::move(bad));

  // Fault-free reference for the good cells only.
  CampaignSpec good_only = spec;
  good_only.studies.pop_back();
  const CampaignResult reference = run_campaign(good_only, 1);

  const CampaignResult result = run_campaign(spec, 4);
  EXPECT_EQ(CountedOwner::live.load(), 0);
  EXPECT_FALSE(result.complete());
  for (const TaskFailure& f : result.failures) {
    EXPECT_EQ(f.key.application, "BAD") << to_string(f.key);
  }
  for (std::size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(result.studies[s], reference.studies[s]);
    EXPECT_TRUE(result.missing[s].empty());
  }
  EXPECT_FALSE(result.missing[3].empty());
  EXPECT_TRUE(std::isnan(result.studies[3].actual_s));
}

TEST(CampaignErrorTest, RunStudyStillThrowsOnMeasurementFailure) {
  // run_study (the serial, single-cell path) has no use for partial
  // results: the campaign layer's isolation must not silently swallow its
  // errors.
  struct ThrowingKernelOwner {
    std::unique_ptr<coupling::CallableKernel> kernel;
    coupling::LoopApplication app;
    ThrowingKernelOwner() {
      app.name = "throwing";
      app.iterations = 1;
      kernel = std::make_unique<coupling::CallableKernel>(
          "boom", []() -> double { throw std::runtime_error("kernel died"); });
      app.loop.push_back(kernel.get());
    }
  };
  const ThrowingKernelOwner owner;
  EXPECT_THROW((void)coupling::run_study(owner.app, {}), std::runtime_error);
}

// --- Cost annotation ---------------------------------------------------------

TEST(PlannerTest, AnnotatesTasksWithExecutionCostEstimates) {
  CampaignSpec spec;
  spec.measurement.repetitions = 10;
  spec.measurement.warmup = 2;
  spec.chain_lengths = {2, 3};
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));

  const CampaignPlan plan = plan_campaign(spec);
  double cost_q1 = 0.0, cost_q3 = 0.0;
  for (const MeasurementTask& t : plan.tasks) {
    EXPECT_GT(t.cost, 0.0) << to_string(t.key);
    if (t.key.kind == TaskKind::kChain && t.key.length == 1) cost_q1 = t.cost;
    if (t.key.kind == TaskKind::kChain && t.key.length == 3) cost_q3 = t.cost;
  }
  // A q=3 chain traverses three kernels per repetition: 3x the q=1 cost.
  EXPECT_DOUBLE_EQ(cost_q1, 1.0 * (10 + 2));
  EXPECT_DOUBLE_EQ(cost_q3, 3.0 * (10 + 2));
}

TEST(CampaignMultiWorkerTest, SyntheticManyCellsStress) {
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  for (int cell = 0; cell < 12; ++cell) {
    spec.studies.push_back(synthetic_cell("S" + std::to_string(cell % 5), 1, 4,
                                          1.0 + 0.25 * (cell % 5)));
  }
  const CampaignResult serial = run_campaign(spec, 1);
  const CampaignResult parallel = run_campaign(spec, 8);
  ASSERT_EQ(serial.studies.size(), parallel.studies.size());
  for (std::size_t s = 0; s < serial.studies.size(); ++s) {
    SCOPED_TRACE("study=" + std::to_string(s));
    expect_identical(serial.studies[s], parallel.studies[s]);
  }
}

// --- Retry -------------------------------------------------------------------

/// Kernels with an artificial noise schedule: every sample alternates
/// between 1 and 3 seconds, so the relative stddev is large until the
/// attempt budget runs out.
struct NoisyOwner {
  std::vector<std::unique_ptr<coupling::CallableKernel>> kernels;
  coupling::LoopApplication app;
  std::shared_ptr<int> tick = std::make_shared<int>(0);

  NoisyOwner() {
    app.name = "noisy";
    app.iterations = 1;
    auto tick_ptr = tick;
    kernels.push_back(std::make_unique<coupling::CallableKernel>(
        "noisy", [tick_ptr] { return (++*tick_ptr % 2 == 0) ? 3.0 : 1.0; }));
    app.loop.push_back(kernels.back().get());
  }
};

TEST(CampaignRetryTest, NoisyMeasurementsAreRetriedUpToTheBudget) {
  CampaignSpec spec;
  spec.chain_lengths = {};
  spec.measurement.repetitions = 4;
  spec.measurement.warmup = 0;
  spec.retry.max_relative_stddev = 0.10;
  spec.retry.max_attempts = 3;

  CampaignStudy cell;
  cell.application = "NOISY";
  cell.config = "C";
  cell.ranks = 1;
  cell.factory = [] {
    auto owner = std::make_unique<NoisyOwner>();
    const coupling::LoopApplication* app = &owner->app;
    return AppHandle(std::shared_ptr<void>(std::move(owner)), app);
  };
  spec.studies.push_back(std::move(cell));

  const CampaignResult result = run_campaign(spec, 1);
  // The isolated task alternates 1/3: rsd stays ~0.57 every attempt, so it
  // retries max_attempts - 1 = 2 extra times.  The actual task has one
  // sample and never retries.
  EXPECT_EQ(result.metrics.tasks_retried, 2u);
}

TEST(CampaignRetryTest, RetriesMergeSamplesInsteadOfDiscardingThem) {
  // The kernel's samples are scripted per instance: the actual run consumes
  // one invocation (9), the isolated measurement's first attempt sees {1, 3}
  // (rsd 0.71 -> retry), later attempts see constant 4s.  Merging keeps the
  // early samples: mean over {1,3,4,4,4,4} = 10/3.  The old
  // keep-only-the-last-attempt behaviour would report 4.0.
  struct ScriptedOwner {
    std::vector<double> script{9.0, 1.0, 3.0, 4.0, 4.0, 4.0, 4.0};
    std::size_t calls = 0;
    std::unique_ptr<coupling::CallableKernel> kernel;
    coupling::LoopApplication app;
    ScriptedOwner() {
      app.name = "scripted";
      app.iterations = 1;
      kernel = std::make_unique<coupling::CallableKernel>("scripted", [this] {
        const double v = calls < script.size() ? script[calls] : 4.0;
        ++calls;
        return v;
      });
      app.loop.push_back(kernel.get());
    }
    [[nodiscard]] const coupling::LoopApplication& a() const { return app; }
  };

  CampaignSpec spec;
  spec.chain_lengths = {};
  spec.measurement.repetitions = 2;
  spec.measurement.warmup = 0;
  spec.retry.max_relative_stddev = 0.10;
  spec.retry.max_attempts = 3;

  CampaignStudy cell;
  cell.application = "SCRIPTED";
  cell.config = "C";
  cell.ranks = 1;
  cell.factory = [] {
    auto owner = std::make_unique<ScriptedOwner>();
    const coupling::LoopApplication* app = &owner->app;
    return AppHandle(std::shared_ptr<void>(std::move(owner)), app);
  };
  spec.studies.push_back(std::move(cell));

  const CampaignResult result = run_campaign(spec, 1);
  EXPECT_EQ(result.metrics.tasks_retried, 2u);
  EXPECT_DOUBLE_EQ(result.studies[0].isolated_means[0], 10.0 / 3.0);
}

TEST(CampaignRetryTest, DefaultPolicyNeverRetries) {
  CampaignSpec spec;
  spec.chain_lengths = {2};
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  const CampaignResult result = run_campaign(spec, 1);
  EXPECT_EQ(result.metrics.tasks_retried, 0u);
}

// --- Text spec ---------------------------------------------------------------

TEST(CampaignTextSpecTest, ParsesFullSpec) {
  std::istringstream in(
      "# BT/SP sweep\n"
      "apps = bt, sp\n"
      "classes = S,W\n"
      "procs = 4,9,16\n"
      "chains = 2,3\n"
      "repetitions = 10\n"
      "warmup = 1\n"
      "workers = 8\n"
      "epilogue_repetitions = 7\n"
      "machine = generic-smp\n"
      "retry_rsd = 0.25\n"
      "retry_max = 4\n");
  const CampaignTextSpec spec = parse_campaign_text(in);
  EXPECT_EQ(spec.applications, (std::vector<std::string>{"bt", "sp"}));
  EXPECT_EQ(spec.configs, (std::vector<std::string>{"S", "W"}));
  EXPECT_EQ(spec.ranks, (std::vector<int>{4, 9, 16}));
  EXPECT_EQ(spec.chain_lengths, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(spec.measurement.repetitions, 10);
  EXPECT_EQ(spec.measurement.warmup, 1);
  EXPECT_EQ(spec.measurement.epilogue_repetitions, 7);
  EXPECT_EQ(spec.workers, 8u);
  EXPECT_EQ(spec.machine, "generic-smp");
  EXPECT_DOUBLE_EQ(spec.retry.max_relative_stddev, 0.25);
  EXPECT_EQ(spec.retry.max_attempts, 4);
}

TEST(CampaignTextSpecTest, DefaultsAndMinimalSpec) {
  std::istringstream in("apps=bt\nclasses=S\nprocs=4\n");
  const CampaignTextSpec spec = parse_campaign_text(in);
  EXPECT_EQ(spec.chain_lengths, (std::vector<std::size_t>{2}));
  EXPECT_EQ(spec.measurement.repetitions, 50);
  EXPECT_EQ(spec.measurement.epilogue_repetitions, 3);
  EXPECT_EQ(spec.workers, 0u);
  EXPECT_EQ(spec.machine, "ibm-sp");
}

TEST(CampaignTextSpecTest, RejectsNonsenseValuesNamingTheOffendingKey) {
  const auto expect_rejects = [](const std::string& line,
                                 const std::string& key) {
    std::istringstream in("apps=bt\nclasses=S\nprocs=4\n" + line + "\n");
    try {
      (void)parse_campaign_text(in);
      FAIL() << "accepted '" << line << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << "error for '" << line << "' does not name '" << key
          << "': " << e.what();
    }
  };
  expect_rejects("repetitions = 0", "repetitions");
  expect_rejects("repetitions = -3", "repetitions");
  expect_rejects("warmup = -1", "warmup");
  expect_rejects("retry_max = 0", "retry_max");
  expect_rejects("retry_max = -2", "retry_max");
  expect_rejects("retry_rsd = -0.5", "retry_rsd");
  expect_rejects("epilogue_repetitions = 0", "epilogue_repetitions");
  expect_rejects("workers = -1", "workers");
  expect_rejects("chains = 2,0", "chains");

  // procs entries must be positive too (a 0-rank cell is meaningless).
  std::istringstream in("apps=bt\nclasses=S\nprocs=4,0\n");
  try {
    (void)parse_campaign_text(in);
    FAIL() << "accepted procs=4,0";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'procs'"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignTextSpecTest, ToTextRoundTripsEveryField) {
  // Property test: serialize an arbitrary spec and parse it back; every
  // field must survive exactly, including awkward doubles.
  std::mt19937 rng(20260807u);
  const std::vector<std::string> app_pool{"bt", "sp", "lu"};
  const std::vector<std::string> class_pool{"S", "W", "A", "B"};
  const std::vector<std::string> machine_pool{"ibm-sp", "generic-smp"};
  auto pick_subset = [&rng](const std::vector<std::string>& pool) {
    std::vector<std::string> out;
    for (const std::string& s : pool) {
      if (rng() % 2 == 0) out.push_back(s);
    }
    if (out.empty()) out.push_back(pool.front());
    return out;
  };

  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    CampaignTextSpec spec;
    spec.applications = pick_subset(app_pool);
    spec.configs = pick_subset(class_pool);
    spec.ranks.clear();
    for (int i = 0; i < 1 + static_cast<int>(rng() % 4); ++i) {
      spec.ranks.push_back(1 + static_cast<int>(rng() % 64));
    }
    spec.chain_lengths.clear();
    for (int i = 0; i < 1 + static_cast<int>(rng() % 3); ++i) {
      spec.chain_lengths.push_back(1 + rng() % 6);
    }
    spec.measurement.repetitions = 1 + static_cast<int>(rng() % 100);
    spec.measurement.warmup = static_cast<int>(rng() % 10);
    spec.measurement.epilogue_repetitions = 1 + static_cast<int>(rng() % 5);
    spec.workers = rng() % 16;
    spec.machine = machine_pool[rng() % machine_pool.size()];
    // Awkward doubles: tiny, huge, and full-precision irrational-ish.
    const double rsd_pool[] = {0.0, 1e-300, 0.1, 1.0 / 3.0, 2.5e17,
                               0.07500000000000001};
    spec.retry.max_relative_stddev = rsd_pool[rng() % 6];
    spec.retry.max_attempts = 1 + static_cast<int>(rng() % 9);

    std::istringstream in(to_text(spec));
    const CampaignTextSpec parsed = parse_campaign_text(in);
    EXPECT_EQ(parsed.applications, spec.applications);
    EXPECT_EQ(parsed.configs, spec.configs);
    EXPECT_EQ(parsed.ranks, spec.ranks);
    EXPECT_EQ(parsed.chain_lengths, spec.chain_lengths);
    EXPECT_EQ(parsed.measurement.repetitions, spec.measurement.repetitions);
    EXPECT_EQ(parsed.measurement.warmup, spec.measurement.warmup);
    EXPECT_EQ(parsed.measurement.epilogue_repetitions,
              spec.measurement.epilogue_repetitions);
    EXPECT_EQ(parsed.workers, spec.workers);
    EXPECT_EQ(parsed.machine, spec.machine);
    EXPECT_EQ(parsed.retry.max_relative_stddev,
              spec.retry.max_relative_stddev);
    EXPECT_EQ(parsed.retry.max_attempts, spec.retry.max_attempts);
  }
}

TEST(CampaignTextSpecTest, RejectsMalformedInput) {
  {
    std::istringstream in("apps=bt\nclasses=S\n");  // missing procs
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
  {
    std::istringstream in("apps=bt\nclasses=S\nprocs=four\n");
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
  {
    std::istringstream in("apps=bt\nclasses=S\nprocs=4\nbogus=1\n");
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
  {
    std::istringstream in("apps=bt\nclasses=S\nprocs=4\nchains=0\n");
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
  {
    std::istringstream in("just some words\n");
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "apps=bt\nclasses=S\nprocs=4\nepilogue_repetitions=0\n");
    EXPECT_THROW(parse_campaign_text(in), std::runtime_error);
  }
}

// --- Metrics rendering -------------------------------------------------------

TEST(CampaignMetricsTest, ExportsTableCsvAndJsonl) {
  CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  spec.studies.push_back(synthetic_cell("A", 1, 3, 1.0));
  const CampaignResult result = run_campaign(spec, 2);

  const std::string table = result.metrics.to_table().to_string();
  EXPECT_NE(table.find("tasks deduplicated"), std::string::npos);

  const std::string csv = result.metrics.to_csv();
  EXPECT_NE(csv.find("tasks_deduplicated"), std::string::npos);
  EXPECT_NE(csv.find("handles_created"), std::string::npos);
  EXPECT_NE(csv.find("task_mean_s"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);

  const std::string jsonl = result.metrics.to_jsonl();
  EXPECT_EQ(jsonl.front(), '{');
  EXPECT_NE(jsonl.find("\"tasks_planned\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"handles_reused\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"task_max_s\":"), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
}

/// Metrics with binary-exact doubles so the expected text is unambiguous.
CampaignMetrics golden_metrics() {
  CampaignMetrics m;
  m.studies = 4;
  m.workers = 8;
  m.tasks_requested = 100;
  m.tasks_planned = 42;
  m.tasks_deduplicated = 50;
  m.cache_hits = 5;
  m.journal_hits = 3;
  m.tasks_executed = 42;
  m.tasks_retried = 2;
  m.tasks_failed = 1;
  m.handles_created = 9;
  m.handles_reused = 33;
  m.plan_s = 0.5;
  m.measure_s = 1.25;
  m.assemble_s = 0.125;
  m.wall_s = 2.0;
  m.task_min_s = 0.03125;
  m.task_max_s = 0.25;
  m.task_mean_s = 0.0625;
  return m;
}

TEST(CampaignMetricsTest, CsvGoldenOutput) {
  const std::string expected =
      "studies,workers,tasks_requested,tasks_planned,tasks_deduplicated,"
      "cache_hits,journal_hits,tasks_executed,tasks_retried,tasks_failed,"
      "handles_created,handles_reused,plan_s,measure_s,assemble_s,wall_s,"
      "task_min_s,task_max_s,task_mean_s\n"
      "4,8,100,42,50,5,3,42,2,1,9,33,0.5,1.25,0.125,2,0.03125,0.25,0.0625\n";
  EXPECT_EQ(golden_metrics().to_csv(), expected);
}

TEST(CampaignMetricsTest, JsonlGoldenOutput) {
  const std::string expected =
      "{\"studies\":4,\"workers\":8,\"tasks_requested\":100,"
      "\"tasks_planned\":42,\"tasks_deduplicated\":50,\"cache_hits\":5,"
      "\"journal_hits\":3,\"tasks_executed\":42,\"tasks_retried\":2,"
      "\"tasks_failed\":1,\"handles_created\":9,\"handles_reused\":33,"
      "\"plan_s\":0.5,\"measure_s\":1.25,\"assemble_s\":0.125,\"wall_s\":2,"
      "\"task_min_s\":0.03125,\"task_max_s\":0.25,\"task_mean_s\":0.0625}\n";
  EXPECT_EQ(golden_metrics().to_jsonl(), expected);
}

TEST(CampaignMetricsTest, TableGoldenOutput) {
  EXPECT_EQ(golden_metrics().to_table().to_string(),
            "Campaign metrics\n"
            "  metric              value     \n"
            "  ------------------------------\n"
            "  studies             4         \n"
            "  workers             8         \n"
            "  tasks requested     100       \n"
            "  tasks planned       42        \n"
            "  tasks deduplicated  50        \n"
            "  cache hits          5         \n"
            "  journal hits        3         \n"
            "  tasks executed      42        \n"
            "  tasks retried       2         \n"
            "  tasks failed        1         \n"
            "  handles created     9         \n"
            "  handles reused      33        \n"
            "  plan time           0.500000 s\n"
            "  measure time        1.250000 s\n"
            "  assemble time       0.125000 s\n"
            "  wall time           2.000000 s\n"
            "  task time min       0.031250 s\n"
            "  task time max       0.250000 s\n"
            "  task time mean      0.062500 s\n");
}

TEST(CampaignMetricsTest, ExportsIgnoreTheGlobalLocale) {
  // A locale whose decimal point is ',' would corrupt both the CSV (extra
  // separators) and the JSON (invalid numbers) if the exports used it.
  struct CommaPoint : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  const std::locale before = std::locale::global(
      std::locale(std::locale::classic(), new CommaPoint));
  const std::string csv = golden_metrics().to_csv();
  const std::string jsonl = golden_metrics().to_jsonl();
  std::locale::global(before);

  EXPECT_NE(csv.find("0.03125"), std::string::npos) << csv;
  EXPECT_EQ(csv.find("0,03125"), std::string::npos) << csv;
  EXPECT_NE(jsonl.find("\"task_min_s\":0.03125"), std::string::npos) << jsonl;
  // Header + one row, each with exactly 19 fields.
  const auto count_fields = [](const std::string& line) {
    return 1 + std::count(line.begin(), line.end(), ',');
  };
  const std::size_t nl = csv.find('\n');
  EXPECT_EQ(count_fields(csv.substr(0, nl)), 19);
  EXPECT_EQ(count_fields(csv.substr(nl + 1, csv.size() - nl - 2)), 19);
}

TEST(CampaignMetricsTest, TableIncludesFailureAndJournalRows) {
  const std::string table = golden_metrics().to_table().to_string();
  EXPECT_NE(table.find("tasks failed"), std::string::npos);
  EXPECT_NE(table.find("journal hits"), std::string::npos);
}

}  // namespace
}  // namespace kcoup::campaign

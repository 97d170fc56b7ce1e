// The harness stops pricing a modeled loop once a traversal leaves the
// machine state unchanged, and replays the recorded costs instead.  Every
// test here compares it with the same application priced in full (the
// state hook cleared), bit for bit, and checks that the fast path runs
// exactly where it may.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coupling/kernel.hpp"
#include "coupling/measurement.hpp"
#include "coupling/modeled_app.hpp"
#include "coupling/synthetic.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"
#include "trace/stats.hpp"

namespace kcoup::coupling {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every number a RunningStats reports, as bit patterns.
std::vector<std::uint64_t> stat_bits(const trace::RunningStats& s) {
  return {s.count(), bits(s.mean()), bits(s.variance()), bits(s.min()),
          bits(s.max())};
}

/// Every measurement the harness makes of `app`: each chain (every start,
/// every length), each prologue and epilogue kernel, and the whole run.
std::vector<std::vector<std::uint64_t>> measure_all(
    const LoopApplication& app, const MeasurementOptions& options) {
  const MeasurementHarness harness(&app, options);
  std::vector<std::vector<std::uint64_t>> out;
  for (std::size_t length = 1; length <= app.loop_size(); ++length) {
    for (std::size_t start = 0; start < app.loop_size(); ++start) {
      out.push_back(stat_bits(harness.chain_stats(start, length)));
    }
  }
  for (std::size_t i = 0; i < app.prologue.size(); ++i) {
    out.push_back(stat_bits(harness.prologue_stats(i)));
  }
  for (std::size_t i = 0; i < app.epilogue.size(); ++i) {
    out.push_back(stat_bits(harness.epilogue_stats(i)));
  }
  out.push_back({bits(harness.actual_total())});
  return out;
}

/// measure_all() with the hook, then with a copy that has it cleared.
void expect_fast_forward_exact(const LoopApplication& app,
                               const MeasurementOptions& options,
                               const std::string& what) {
  ASSERT_TRUE(app.state_repeats) << what;
  LoopApplication full = app;
  full.state_repeats = nullptr;
  EXPECT_EQ(measure_all(app, options), measure_all(full, options)) << what;
}

/// Forwards to a kernel and counts the invocations priced.
class CountingKernel final : public Kernel {
 public:
  explicit CountingKernel(Kernel* inner) : inner_(inner) {}
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  double invoke() override {
    ++count_;
    return inner_->invoke();
  }
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  Kernel* inner_;
  std::size_t count_ = 0;
};

/// Replace every loop kernel of `app` by a counter around it.
std::vector<std::unique_ptr<CountingKernel>> count_loop(LoopApplication& app) {
  std::vector<std::unique_ptr<CountingKernel>> counters;
  for (Kernel*& k : app.loop) {
    counters.push_back(std::make_unique<CountingKernel>(k));
    k = counters.back().get();
  }
  return counters;
}

std::size_t total(const std::vector<std::unique_ptr<CountingKernel>>& cs) {
  std::size_t n = 0;
  for (const auto& c : cs) n += c->count();
  return n;
}

/// A synthetic app with one prologue and one epilogue kernel added, so
/// every measurement kind meets structure the NPB models do not have.
std::unique_ptr<ModeledApp> synthetic_with_ends(unsigned seed, int ranks,
                                                int iterations) {
  SyntheticAppSpec spec;
  spec.seed = seed;
  spec.ranks = ranks;
  spec.iterations = iterations;
  spec.kernels = 3 + seed % 4;
  spec.regions = spec.kernels + 2;
  auto modeled = make_synthetic_app(spec, machine::ibm_sp_p2sc());
  const auto* first =
      static_cast<const ModeledKernel*>(modeled->app().loop[0]);
  machine::WorkProfile ends = first->profile();
  ends.label = "Ends";
  ends.kernel = static_cast<machine::KernelId>(spec.kernels);
  modeled->add_prologue(ends);
  modeled->add_epilogue(ends);
  return modeled;
}

TEST(FixedPointTest, SyntheticAppsMatchFullPricingBitForBit) {
  for (unsigned seed : {1u, 2u, 3u, 5u, 8u}) {
    for (int ranks : {1, 4, 16}) {
      for (int iterations : {1, 2, 300}) {
        const auto modeled = synthetic_with_ends(seed, ranks, iterations);
        for (int warmup : {0, 3}) {
          for (int repetitions : {1, 50}) {
            for (int epilogue_repetitions : {1, 3, 5}) {
              MeasurementOptions options;
              options.warmup = warmup;
              options.repetitions = repetitions;
              options.epilogue_repetitions = epilogue_repetitions;
              std::string what = "seed ";
              what += std::to_string(seed) + " P=" + std::to_string(ranks) +
                      " iterations " + std::to_string(iterations) +
                      " warmup " + std::to_string(warmup) + " repetitions " +
                      std::to_string(repetitions) + " epilogue " +
                      std::to_string(epilogue_repetitions);
              expect_fast_forward_exact(modeled->app(), options, what);
            }
          }
        }
      }
    }
  }
}

struct NpbCell {
  const char* name;
  npb::ProblemClass cls;
  int ranks;
};

std::unique_ptr<ModeledApp> make_npb(const NpbCell& c) {
  const std::string name = c.name;
  if (name == "BT") {
    return npb::bt::make_modeled_bt(c.cls, c.ranks, machine::ibm_sp_p2sc());
  }
  if (name == "SP") {
    return npb::sp::make_modeled_sp(c.cls, c.ranks, machine::generic_smp());
  }
  return npb::lu::make_modeled_lu(c.cls, c.ranks, machine::ibm_sp_p2sc());
}

const std::vector<NpbCell>& npb_cells() {
  static const std::vector<NpbCell> cells{
      {"BT", npb::ProblemClass::kS, 4}, {"BT", npb::ProblemClass::kW, 9},
      {"SP", npb::ProblemClass::kS, 9}, {"SP", npb::ProblemClass::kW, 4},
      {"LU", npb::ProblemClass::kS, 8}, {"LU", npb::ProblemClass::kW, 4}};
  return cells;
}

TEST(FixedPointTest, NpbCellsMatchFullPricingBitForBit) {
  for (const NpbCell& c : npb_cells()) {
    const auto modeled = make_npb(c);
    expect_fast_forward_exact(modeled->app(), MeasurementOptions{},
                              std::string(c.name) + "-" +
                                  npb::to_string(c.cls) + " P=" +
                                  std::to_string(c.ranks));
  }
}

TEST(FixedPointTest, NpbWholeRunsPriceFarFewerInvocations) {
  for (const NpbCell& c : npb_cells()) {
    const auto modeled = make_npb(c);
    const LoopApplication& own = modeled->app();
    // The counters only forward to the app's own kernels, so the app's
    // verdict on its own lists holds for this copy.
    LoopApplication counted = own;
    const auto counters = count_loop(counted);
    counted.state_repeats = [&own](const LoopApplication&) {
      return own.state_repeats(own);
    };
    const MeasurementHarness harness(&counted, MeasurementOptions{});
    const std::size_t full_run =
        static_cast<std::size_t>(own.iterations) * own.loop_size();

    LoopApplication reference = own;
    reference.state_repeats = nullptr;
    EXPECT_EQ(bits(harness.actual_total()),
              bits(MeasurementHarness(&reference, {}).actual_total()))
        << c.name;
    EXPECT_LT(total(counters) * 10, full_run) << c.name;

    const std::size_t before = total(counters);
    (void)harness.chain_stats(0, own.loop_size());
    // 53 traversals priced in full; a fixed point within a few.
    EXPECT_LE(total(counters) - before, 4 * own.loop_size()) << c.name;
  }
}

/// A copy of `own` whose loop kernels count their invocations; its hook
/// asks the owner about the owner's own lists, which hold the same kernels.
struct CountedLoop {
  explicit CountedLoop(const LoopApplication& own) : app(own) {
    counters = count_loop(app);
    app.state_repeats = [&own](const LoopApplication&) {
      return own.state_repeats(own);
    };
  }
  LoopApplication app;
  std::vector<std::unique_ptr<CountingKernel>> counters;
};

TEST(FixedPointTest, NpbEpilogueMeasurementPricesItsRunOnce) {
  for (const NpbCell& c : npb_cells()) {
    const auto modeled = make_npb(c);
    const LoopApplication& own = modeled->app();
    ASSERT_FALSE(own.epilogue.empty()) << c.name;
    const CountedLoop counted(own);
    LoopApplication reference = own;
    reference.state_repeats = nullptr;
    std::size_t once = 0;
    for (int repetitions : {1, 3, 5}) {
      MeasurementOptions options;
      options.epilogue_repetitions = repetitions;
      const std::size_t before = total(counted.counters);
      const auto stats = stat_bits(
          MeasurementHarness(&counted.app, options).epilogue_stats(0));
      EXPECT_EQ(stats, stat_bits(MeasurementHarness(&reference, options)
                                     .epilogue_stats(0)))
          << c.name << " epilogue repetitions " << repetitions;
      const std::size_t priced = total(counted.counters) - before;
      if (repetitions == 1) once = priced;
      // One run to the loop's fixed point, whatever the repetitions.
      EXPECT_EQ(priced, once) << c.name << " repetitions " << repetitions;
    }
    EXPECT_LT(once, static_cast<std::size_t>(own.iterations) *
                        own.loop_size())
        << c.name;
  }
}

TEST(FixedPointTest, ForeignKernelEpilogueMeasurementPricesEveryRun) {
  const auto modeled = npb::lu::make_modeled_lu(npb::ProblemClass::kS, 4,
                                                machine::ibm_sp_p2sc());
  LoopApplication reference = modeled->app();
  reference.state_repeats = nullptr;
  LoopApplication& app = modeled->app();
  CountingKernel foreign(app.loop[0]);
  app.loop[0] = &foreign;
  MeasurementOptions options;
  options.epilogue_repetitions = 4;
  const MeasurementHarness full(&reference, options);
  EXPECT_EQ(stat_bits(MeasurementHarness(&app, options).epilogue_stats(1)),
            stat_bits(full.epilogue_stats(1)));
  EXPECT_EQ(foreign.count(), 4u * static_cast<std::size_t>(app.iterations));
}

TEST(FixedPointTest, KernelSwappedAfterAMeasurementDisablesTheHook) {
  const auto modeled = npb::bt::make_modeled_bt(npb::ProblemClass::kW, 4,
                                                machine::ibm_sp_p2sc());
  LoopApplication& app = modeled->app();
  LoopApplication reference = app;
  reference.state_repeats = nullptr;
  const MeasurementOptions options;
  const MeasurementHarness full(&reference, options);
  const std::size_t n = app.loop_size();
  // The first measurement finds every kernel the app's own and reaches a
  // fixed point.
  EXPECT_EQ(stat_bits(MeasurementHarness(&app, options).chain_stats(0, n)),
            stat_bits(full.chain_stats(0, n)));

  CountingKernel foreign(app.loop[1]);
  app.loop[1] = &foreign;
  const MeasurementHarness harness(&app, options);
  const auto passes =
      static_cast<std::size_t>(options.warmup + options.repetitions);
  EXPECT_EQ(stat_bits(harness.chain_stats(0, n)),
            stat_bits(full.chain_stats(0, n)));
  EXPECT_EQ(foreign.count(), passes);
  EXPECT_EQ(bits(harness.actual_total()), bits(full.actual_total()));
  EXPECT_EQ(foreign.count(),
            passes + static_cast<std::size_t>(app.iterations));
  EXPECT_EQ(stat_bits(harness.epilogue_stats(0)),
            stat_bits(full.epilogue_stats(0)));
  EXPECT_EQ(foreign.count(),
            passes + static_cast<std::size_t>(app.iterations) *
                         static_cast<std::size_t>(
                             1 + options.epilogue_repetitions));
}

TEST(FixedPointTest, CallableKernelAppWithoutHookPricesEveryInvocation) {
  CallableKernel a("a", [] { return 1e-3; });
  CallableKernel b("b", [] { return 2e-3; });
  CallableKernel init("init", [] { return 3e-3; });
  CallableKernel finish("finish", [] { return 4e-3; });
  LoopApplication app;
  app.iterations = 300;
  app.loop = {&a, &b};
  const auto counters = count_loop(app);
  CountingKernel counted_init(&init);
  CountingKernel counted_final(&finish);
  app.prologue = {&counted_init};
  app.epilogue = {&counted_final};
  const MeasurementOptions options;
  const MeasurementHarness harness(&app, options);
  (void)harness.actual_total();
  EXPECT_EQ(total(counters), 300u * 2u);
  (void)harness.chain_stats(0, 2);
  const auto passes =
      static_cast<std::size_t>(options.warmup + options.repetitions);
  EXPECT_EQ(total(counters), 300u * 2u + passes * 2u);

  // Prologue and epilogue samples: every repetition is a priced run.
  const std::size_t inits = counted_init.count();
  (void)harness.prologue_stats(0);
  EXPECT_EQ(counted_init.count() - inits,
            static_cast<std::size_t>(options.repetitions));
  const std::size_t loops = total(counters);
  const std::size_t finals = counted_final.count();
  (void)harness.epilogue_stats(0);
  const auto runs = static_cast<std::size_t>(options.epilogue_repetitions);
  EXPECT_EQ(total(counters) - loops, runs * 300u * 2u);
  EXPECT_EQ(counted_final.count() - finals, runs);
}

TEST(FixedPointTest, ForeignKernelInTheLoopDisablesTheHook) {
  const auto modeled = npb::bt::make_modeled_bt(npb::ProblemClass::kW, 4,
                                                machine::ibm_sp_p2sc());
  LoopApplication reference = modeled->app();
  reference.state_repeats = nullptr;
  const double full = MeasurementHarness(&reference, {}).actual_total();

  // A counter around the app's own kernel prices the same, but the app did
  // not create it, so nothing may be fast-forwarded.
  LoopApplication& app = modeled->app();
  CountingKernel foreign(app.loop[0]);
  app.loop[0] = &foreign;
  const MeasurementHarness harness(&app, {});
  EXPECT_EQ(bits(harness.actual_total()), bits(full));
  EXPECT_EQ(foreign.count(), static_cast<std::size_t>(app.iterations));
}

TEST(FixedPointTest, CopiedHookRefusesACopyThatRunsForeignKernels) {
  const auto modeled = npb::lu::make_modeled_lu(npb::ProblemClass::kS, 4,
                                                machine::ibm_sp_p2sc());
  // The copy keeps the app's hook; asked about the copy, the hook sees a
  // kernel the app did not create.
  LoopApplication copy = modeled->app();
  CountingKernel foreign(copy.loop[1]);
  copy.loop[1] = &foreign;
  const MeasurementOptions options;
  (void)MeasurementHarness(&copy, options).chain_stats(1, 1);
  EXPECT_EQ(foreign.count(),
            static_cast<std::size_t>(options.warmup + options.repetitions));
}

TEST(FixedPointTest, ReplacedResetDisablesTheHook) {
  const auto modeled = npb::sp::make_modeled_sp(npb::ProblemClass::kS, 4,
                                                machine::ibm_sp_p2sc());
  LoopApplication& app = modeled->app();
  int resets = 0;
  app.reset = [&modeled, &resets] {
    ++resets;
    modeled->machine().reset_state();
  };
  const MeasurementOptions options;
  (void)MeasurementHarness(&app, options).prologue_stats(0);
  EXPECT_EQ(resets, options.repetitions);
}

}  // namespace
}  // namespace kcoup::coupling

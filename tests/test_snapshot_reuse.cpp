// Fit reuse across snapshot builds: a CSV rebuild keeps the outgoing
// snapshot's piecewise model for every kernel whose sample series is
// bit-identical to the one that model was fitted from, and refits the rest.
// Whatever the reload sequence, every published snapshot must pack to the
// same bytes as a from-scratch build of the same file.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "coupling/database.hpp"
#include "model/select.hpp"
#include "obs/trace.hpp"
#include "serve/pack.hpp"
#include "serve/snapshot.hpp"

namespace kcoup {
namespace {

using Series = std::vector<model::ModelSample>;
/// Per application, per kernel (loop order): what a snapshot build fits.
using SeriesMap = std::map<std::string, std::vector<Series>>;

/// A synthetic application suite: per application a loop size, per config
/// a grid extent, closed-form isolated means a test can perturb kernel by
/// kernel, and the set of measured (config, ranks) cells.
struct Suite {
  /// application -> config -> rank counts.
  std::map<std::string, std::map<std::string, std::set<int>>> cells;
  /// Factors on single (application, config, ranks, kernel) means.
  std::map<std::tuple<std::string, std::string, int, std::size_t>, double>
      perturbed;
  /// Loop sizes that differ from an application's default.
  std::map<std::string, std::size_t> loop_sizes;
  /// Scales every mean: a suite whose fits differ from this one's.
  double scale = 1.0;

  [[nodiscard]] std::size_t loop_size(const std::string& app) const {
    const auto it = loop_sizes.find(app);
    if (it != loop_sizes.end()) return it->second;
    return 2 + static_cast<std::size_t>(app[0] - 'A');  // AA 2, BB 3, ...
  }

  static double extent(const std::string& config) {
    static const std::map<std::string, double> n{
        {"S", 12.0}, {"W", 24.0}, {"A", 64.0}, {"B", 102.0}};
    return n.at(config);
  }

  [[nodiscard]] double mean(const std::string& app, const std::string& config,
                            int ranks, std::size_t k) const {
    const double n = extent(config);
    const double p = static_cast<double>(ranks);
    const double c = static_cast<double>(k + 1) +
                     static_cast<double>(app[0] - 'A');
    double m = 1e-9 * c * n * n * n / p + 2e-6 * c * std::log2(p + 1.0);
    const auto it = perturbed.find({app, config, ranks, k});
    if (it != perturbed.end()) m *= it->second;
    return scale * m;
  }

  /// Reads this suite live, so a test changes cells under a source.
  [[nodiscard]] serve::CellFn cell_fn() const {
    return [this](const std::string& app, const std::string& config,
                  int ranks) -> std::optional<serve::CellInputs> {
      serve::CellInputs cell;
      cell.loop_size = loop_size(app);
      cell.grid_extent = extent(config);
      for (std::size_t k = 0; k < cell.loop_size; ++k) {
        cell.inputs.isolated_means.push_back(mean(app, config, ranks, k));
      }
      return cell;
    };
  }

  /// One complete chain-of-2 group per cell.  `round` moves every chain
  /// time, as a re-measurement does, and leaves the isolated means alone.
  [[nodiscard]] coupling::CouplingDatabase database(int round) const {
    coupling::CouplingDatabase db;
    for (const auto& [app, configs] : cells) {
      const std::size_t loop = loop_size(app);
      for (const auto& [config, ranks_set] : configs) {
        for (const int ranks : ranks_set) {
          for (std::size_t start = 0; start < loop; ++start) {
            coupling::CouplingRecord r;
            r.key = {app, config, ranks, 2, start};
            r.isolated_sum = mean(app, config, ranks, start) +
                             mean(app, config, ranks, (start + 1) % loop);
            r.chain_time =
                r.isolated_sum *
                (1.02 + 0.01 * static_cast<double>((start + round) % 5));
            db.record(r);
          }
        }
      }
    }
    return db;
  }

  /// The series a build fits, written out independently of the snapshot:
  /// every cell in (config, ranks) order, one sample per kernel.
  [[nodiscard]] SeriesMap series() const {
    SeriesMap out;
    for (const auto& [app, configs] : cells) {
      std::vector<Series> kernels(loop_size(app));
      for (const auto& [config, ranks_set] : configs) {
        for (const int ranks : ranks_set) {
          for (std::size_t k = 0; k < kernels.size(); ++k) {
            kernels[k].push_back({extent(config), static_cast<double>(ranks),
                                  mean(app, config, ranks, k)});
          }
        }
      }
      if (!configs.empty()) out.emplace(app, std::move(kernels));
    }
    return out;
  }
};

static_assert(sizeof(model::ModelSample) == 3 * sizeof(double),
              "a series compares as raw bytes");

std::size_t series_count(const SeriesMap& series) {
  std::size_t n = 0;
  for (const auto& [app, kernels] : series) n += kernels.size();
  return n;
}

/// Series of `after` that are byte-identical to the same application's
/// series in `before`, where both have the same loop size.
std::size_t reusable(const SeriesMap& before, const SeriesMap& after) {
  std::size_t n = 0;
  for (const auto& [app, kernels] : after) {
    const auto it = before.find(app);
    if (it == before.end() || it->second.size() != kernels.size()) continue;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const Series& a = it->second[k];
      const Series& b = kernels[k];
      if (a.size() == b.size() && !a.empty() &&
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0) {
        ++n;
      }
    }
  }
  return n;
}

/// Equal pack bytes — database, alpha groups, every fitted model and the
/// transitions — or the first byte where they differ.
::testing::AssertionResult same_pack(const serve::PredictorSnapshot& a,
                                     const serve::PredictorSnapshot& b) {
  const std::string x = serve::pack_snapshot(a);
  const std::string y = serve::pack_snapshot(b);
  if (x == y) return ::testing::AssertionSuccess();
  const auto at = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
  return ::testing::AssertionFailure()
         << "packs of " << x.size() << " and " << y.size()
         << " bytes differ from byte " << (at.first - x.begin());
}

/// Two applications over two configs: 5 kernel series.
Suite starting_suite() {
  Suite suite;
  suite.cells["AA"]["S"] = {1, 2, 4};
  suite.cells["AA"]["W"] = {2, 4, 8};
  suite.cells["BB"]["S"] = {1, 4, 9};
  suite.cells["BB"]["A"] = {4, 9, 16};
  return suite;
}

class SnapshotReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::path(::testing::TempDir()) /
             ("kcoup_reuse_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    suite_ = starting_suite();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// A from-scratch build of the database file at path_.
  [[nodiscard]] serve::PredictorSnapshot scratch_build() const {
    coupling::CouplingDatabase db;
    db.load_csv_file(path_);
    return serve::PredictorSnapshot(std::move(db), 1, suite_.cell_fn(), {});
  }

  std::string path_;
  Suite suite_;
};

TEST_F(SnapshotReuseTest, UnchangedSeriesKeepTheirModelsChangedOnesRefit) {
  const serve::SnapshotOptions options;
  const serve::PredictorSnapshot first(suite_.database(0), 1,
                                       suite_.cell_fn(), options);
  EXPECT_EQ(first.fits_reused(), 0u);
  EXPECT_EQ(first.fits_computed(), 5u);

  // Re-measured couplings, same cells: every fit carries over.
  const serve::PredictorSnapshot same(suite_.database(1), 2, suite_.cell_fn(),
                                      options, &first);
  EXPECT_EQ(same.fits_reused(), 5u);
  EXPECT_EQ(same.fits_computed(), 0u);
  const serve::PredictorSnapshot same_scratch(suite_.database(1), 2,
                                              suite_.cell_fn(), options);
  EXPECT_TRUE(same_pack(same, same_scratch));

  // One kernel's mean in one cell: only that series is refitted.
  suite_.perturbed[{"BB", "A", 9, 1}] = 1.25;
  const serve::PredictorSnapshot one(suite_.database(1), 3, suite_.cell_fn(),
                                     options, &same);
  EXPECT_EQ(one.fits_reused(), 4u);
  EXPECT_EQ(one.fits_computed(), 1u);
  const serve::PredictorSnapshot one_scratch(suite_.database(1), 3,
                                             suite_.cell_fn(), options);
  EXPECT_TRUE(same_pack(one, one_scratch));
  EXPECT_FALSE(same_pack(one, same));

  // A new rank count changes every series of its application.
  suite_.cells["AA"]["W"].insert(16);
  const serve::PredictorSnapshot grown(suite_.database(1), 4,
                                       suite_.cell_fn(), options, &one);
  EXPECT_EQ(grown.fits_reused(), 3u);
  EXPECT_EQ(grown.fits_computed(), 2u);
}

TEST_F(SnapshotReuseTest, PackedPredecessorCarriesNoSeriesSoEverythingRefits) {
  // The packed predecessor's models come from a suite whose means are all
  // half again as large: reusing any of them would show in the bytes.
  Suite other = suite_;
  other.scale = 1.5;
  const serve::PredictorSnapshot built(suite_.database(0), 1, other.cell_fn(),
                                       {});
  const std::string bytes = serve::pack_snapshot(built);
  const auto packed = serve::load_packed_snapshot_bytes(
      bytes.data(), bytes.size(), 1, "reuse-test");
  EXPECT_EQ(packed->fits_reused(), 0u);
  EXPECT_EQ(packed->fits_computed(), 0u);

  const serve::PredictorSnapshot after(suite_.database(0), 2,
                                       suite_.cell_fn(), {}, packed.get());
  EXPECT_EQ(after.fits_reused(), 0u);
  EXPECT_EQ(after.fits_computed(), 5u);
  const serve::PredictorSnapshot scratch(suite_.database(0), 2,
                                         suite_.cell_fn(), {});
  EXPECT_TRUE(same_pack(after, scratch));
}

TEST_F(SnapshotReuseTest, ChangedLoopSizeRefitsTheWholeApplication) {
  const serve::PredictorSnapshot first(suite_.database(0), 1,
                                       suite_.cell_fn(), {});
  // AA gains a kernel; kernels 0 and 1 keep bit-identical series, but a
  // different loop size is a different application shape.
  suite_.loop_sizes["AA"] = 3;
  const serve::PredictorSnapshot after(suite_.database(0), 2,
                                       suite_.cell_fn(), {}, &first);
  EXPECT_EQ(after.fits_reused(), 3u);  // BB's three kernels
  EXPECT_EQ(after.fits_computed(), 3u);
}

TEST_F(SnapshotReuseTest, SeededReloadSequenceMatchesFromScratchBuilds) {
  enum Step {
    kRemeasure,
    kAddRanks,
    kDropRanks,
    kAddClass,
    kDropClass,
    kAddApp,
    kDropApp,
    kPerturbCell,
    kPacked,
    kMalformed,
    kStepKinds
  };
  std::mt19937_64 rng(23);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Every kind once, the rest drawn by the seed, then shuffled; a final
  // re-measure makes sure a .kcs or a broken file is followed by a good
  // CSV.
  std::vector<int> steps;
  for (int s = 0; s < kStepKinds; ++s) steps.push_back(s);
  while (steps.size() < 25) {
    steps.push_back(static_cast<int>(pick(kStepKinds)));
  }
  std::shuffle(steps.begin(), steps.end(), rng);
  steps.push_back(kRemeasure);

  const std::vector<std::string> app_pool{"AA", "BB", "CC", "DD"};
  const std::vector<std::string> class_pool{"S", "W", "A", "B"};
  const std::vector<int> rank_pool{1, 2, 3, 4, 6, 8, 9, 12, 16};
  const auto random_ranks = [&] {
    std::set<int> ranks;
    while (ranks.size() < 3) ranks.insert(rank_pool[pick(rank_pool.size())]);
    return ranks;
  };
  // Every (application, config) cell list, and every application.
  const auto class_lists = [&] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [app, configs] : suite_.cells) {
      for (const auto& [config, ranks] : configs) out.emplace_back(app, config);
    }
    return out;
  };
  const auto apps = [&] {
    std::vector<std::string> out;
    for (const auto& [app, configs] : suite_.cells) out.push_back(app);
    return out;
  };
  // A random element of `candidates` that satisfies `ok`, if any.
  const auto choose = [&](auto candidates, auto ok)
      -> std::optional<typename decltype(candidates)::value_type> {
    std::erase_if(candidates, [&](const auto& c) { return !ok(c); });
    if (candidates.empty()) return std::nullopt;
    return candidates[pick(candidates.size())];
  };

  int round = 0;
  suite_.database(round).save_csv_file(path_);
  serve::SnapshotSource source(path_, suite_.cell_fn());
  source.load();
  SeriesMap outgoing = suite_.series();
  ASSERT_EQ(source.current()->fits_computed(), series_count(outgoing));

  std::map<int, int> done;  // step kind -> times it changed the suite
  std::size_t reused_total = 0;
  std::size_t computed_total = 0;
  std::uint64_t failures = 0;
  double factor = 1.0;
  for (const int step : steps) {
    ++round;
    // A step whose precondition fails (nothing left to drop or add)
    // re-measures instead.
    int ran = kRemeasure;
    switch (step) {
      case kRemeasure:
        break;
      case kAddRanks:
        if (const auto cell = choose(class_lists(), [&](const auto& c) {
              return suite_.cells[c.first][c.second].size() < rank_pool.size();
            })) {
          std::set<int>& ranks = suite_.cells[cell->first][cell->second];
          const std::size_t before = ranks.size();
          while (ranks.size() == before) {
            ranks.insert(rank_pool[pick(rank_pool.size())]);
          }
          ran = step;
        }
        break;
      case kDropRanks:
        if (const auto cell = choose(class_lists(), [&](const auto& c) {
              return suite_.cells[c.first][c.second].size() > 2;
            })) {
          std::set<int>& ranks = suite_.cells[cell->first][cell->second];
          auto it = ranks.begin();
          std::advance(it, static_cast<long>(pick(ranks.size())));
          ranks.erase(it);
          ran = step;
        }
        break;
      case kAddClass:
        if (const auto app = choose(apps(), [&](const std::string& a) {
              return suite_.cells[a].size() < class_pool.size();
            })) {
          const auto cls = choose(class_pool, [&](const std::string& c) {
            return suite_.cells[*app].count(c) == 0;
          });
          suite_.cells[*app][*cls] = random_ranks();
          ran = step;
        }
        break;
      case kDropClass:
        if (const auto app = choose(apps(), [&](const std::string& a) {
              return suite_.cells[a].size() > 1;
            })) {
          auto it = suite_.cells[*app].begin();
          std::advance(it, static_cast<long>(pick(suite_.cells[*app].size())));
          suite_.cells[*app].erase(it);
          ran = step;
        }
        break;
      case kAddApp:
        if (const auto app = choose(app_pool, [&](const std::string& a) {
              return suite_.cells.count(a) == 0;
            })) {
          suite_.cells[*app][class_pool[pick(class_pool.size())]] =
              random_ranks();
          ran = step;
        }
        break;
      case kDropApp:
        if (suite_.cells.size() > 1) {
          suite_.cells.erase(apps()[pick(suite_.cells.size())]);
          ran = step;
        }
        break;
      case kPerturbCell: {
        const auto [app, cls] = class_lists()[pick(class_lists().size())];
        const std::set<int>& ranks = suite_.cells[app][cls];
        auto it = ranks.begin();
        std::advance(it, static_cast<long>(pick(ranks.size())));
        factor += 0.125;
        suite_.perturbed[{app, cls, *it, pick(suite_.loop_size(app))}] =
            factor;
        ran = step;
        break;
      }
      case kPacked: {
        // The packed file's models come from other means, so any reuse of
        // them by the next CSV build shows in its bytes.
        Suite other = suite_;
        other.scale = 1.5;
        const serve::PredictorSnapshot packed(suite_.database(round), 0,
                                              other.cell_fn(), {});
        (void)serve::pack_snapshot_file(packed, path_);
        ASSERT_TRUE(source.poll()) << "round " << round;
        const auto current = source.current();
        EXPECT_EQ(current->fits_reused(), 0u);
        EXPECT_EQ(current->fits_computed(), 0u);
        EXPECT_TRUE(same_pack(*current, packed));
        outgoing.clear();
        ++done[kPacked];
        continue;
      }
      case kMalformed: {
        const auto before = source.current();
        {
          std::ofstream out(path_ + ".tmp");
          out << "application,config,ranks,chain_length,chain_start,"
                 "chain_time,isolated_sum\nAA,S,four,2,0,1.0,1.0\n";
        }
        std::filesystem::rename(path_ + ".tmp", path_);
        EXPECT_FALSE(source.poll()) << "round " << round;
        ++failures;
        EXPECT_EQ(source.reload_failures(), failures);
        EXPECT_EQ(source.current(), before);
        ++done[kMalformed];
        continue;
      }
      default:
        FAIL() << "unknown step " << step;
    }
    ++done[ran];

    suite_.database(round).save_csv_file(path_);
    ASSERT_TRUE(source.poll()) << "round " << round;
    const auto current = source.current();
    const SeriesMap expected = suite_.series();
    const std::size_t reuse = reusable(outgoing, expected);
    EXPECT_EQ(current->fits_reused(), reuse) << "round " << round;
    EXPECT_EQ(current->fits_computed(), series_count(expected) - reuse)
        << "round " << round;
    EXPECT_TRUE(same_pack(*current, scratch_build()))
        << "round " << round << ", step " << ran;
    reused_total += current->fits_reused();
    computed_total += current->fits_computed();
    outgoing = expected;
  }

  EXPECT_GE(source.reloads(), 21u);  // the load and >= 20 reloads
  EXPECT_GT(reused_total, 0u);
  EXPECT_GT(computed_total, 0u);
  for (int s = 0; s < kStepKinds; ++s) {
    EXPECT_GE(done[s], 1) << "step kind " << s << " never ran";
  }
}

TEST_F(SnapshotReuseTest, ReloadSpanCountsFitsReusedAndComputed) {
  suite_.database(0).save_csv_file(path_);
  serve::SnapshotSource source(path_, suite_.cell_fn());
  source.load();
  suite_.perturbed[{"AA", "S", 2, 0}] = 2.0;
  suite_.database(1).save_csv_file(path_);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  ASSERT_TRUE(source.poll());
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();
  // The counts ride on the reload span next to the drift sample count.
  EXPECT_NE(out.str().find(R"("records":"30","fits_reused":"4",)"
                           R"("fits_computed":"1","drift_new":"0")"),
            std::string::npos)
      << out.str();
}

TEST_F(SnapshotReuseTest, ConcurrentReadersDuringReusingReloads) {
  suite_.database(0).save_csv_file(path_);
  serve::SnapshotSource source(path_, suite_.cell_fn());
  source.load();

  // Readers evaluate the published snapshot while each rebuild copies
  // models and series out of that same snapshot.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> non_finite{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = source.current();
        for (const auto& [app, models] : snapshot->fitted_models()) {
          for (const model::PiecewiseModel& m : models) {
            if (!std::isfinite(m.evaluate(24.0, 6.0))) ++non_finite;
          }
        }
        ++reads;
      }
    });
  }
  std::size_t reused_total = 0;
  for (int round = 1; round <= 12; ++round) {
    if (round % 3 == 0) suite_.perturbed[{"BB", "S", 4, 0}] = 1.0 + 0.1 * round;
    suite_.database(round).save_csv_file(path_);
    EXPECT_TRUE(source.poll()) << "round " << round;
    reused_total += source.current()->fits_reused();
  }
  while (reads.load() == 0) std::this_thread::yield();
  stop = true;
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(source.reloads(), 13u);
  EXPECT_EQ(non_finite.load(), 0u);
  EXPECT_EQ(reused_total, 12u * 5u - 4u);  // four rounds refit one series
  EXPECT_TRUE(same_pack(*source.current(), scratch_build()));
}

}  // namespace
}  // namespace kcoup

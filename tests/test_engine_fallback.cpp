// Differential tests for the query engine's fallback answers.  Every
// nearest-donor and model answer of QueryEngine::predict is compared, bit
// for bit and refusals included, with a naive evaluation kept here: a scan
// over every record for each chain start's nearest-ranks donor, alpha
// summed over the chains' members as the paper's formula reads, and the
// model form joined from SelectedModel::term_names().  The stores are
// seeded and random: partial groups, missing and out-of-loop chain starts,
// log-equidistant rank pairs, duplicate keys installed through adopt() and
// records replaced through record().

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "coupling/analysis.hpp"
#include "coupling/database.hpp"
#include "model/piecewise.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "trace/stats.hpp"

namespace kcoup {
namespace {

/// Three applications with different loop sizes ("B" shares a prefix with
/// "BT" and "BTX"), two configs.  Rank counts 5, 7 and 10 cannot run, so
/// queries there take the model path.
class DiffWorkload final : public serve::Workload {
 public:
  static bool known(const std::string& app, const std::string& config) {
    return (app == "B" || app == "BT" || app == "BTX") &&
           (config == "A" || config == "W");
  }
  static std::size_t loop_size(const std::string& app) {
    return app == "B" ? 3 : app == "BT" ? 4 : 5;
  }
  static bool runs_at(int ranks) {
    return ranks >= 1 && ranks != 5 && ranks != 7 && ranks != 10;
  }
  static double extent(const std::string& config) {
    return config == "A" ? 16.0 : 24.0;
  }

  std::optional<std::pair<std::string, std::string>> canonical(
      const std::string& application,
      const std::string& config) const override {
    if (!known(application, config)) return std::nullopt;
    return std::make_pair(application, config);
  }

  bool valid_cell(const std::string& application, const std::string& config,
                  int ranks) const override {
    return known(application, config) && runs_at(ranks);
  }

  serve::CellInputs measure_cell(const std::string& application,
                                 const std::string& config,
                                 int ranks) const override {
    if (!valid_cell(application, config, ranks)) {
      throw std::invalid_argument("DiffWorkload: invalid cell");
    }
    serve::CellInputs cell;
    cell.loop_size = loop_size(application);
    cell.grid_extent = extent(config);
    for (std::size_t k = 0; k < cell.loop_size; ++k) {
      const double n = cell.grid_extent;
      cell.inputs.isolated_means.push_back(
          1e-6 * (static_cast<double>(k + 1) * n * n / ranks +
                  3.0 * static_cast<double>(k) + 1.0));
    }
    cell.inputs.prologue_s = 0.001;
    cell.inputs.epilogue_s = 0.002;
    cell.inputs.iterations = 7;
    cell.summation_s = coupling::summation_prediction(cell.inputs);
    cell.actual_s = cell.summation_s * 1.07;
    return cell;
  }

  std::optional<serve::CellShape> shape(
      const std::string& application,
      const std::string& config) const override {
    if (!known(application, config)) return std::nullopt;
    return serve::CellShape{extent(config), 7};
  }
};

// --- The naive evaluation -----------------------------------------------------

/// The record of one series nearest to `ranks` in log scale, found by
/// scanning every record: ties go to the smaller rank count, and of several
/// records with one rank count the first stored one answers.
const coupling::CouplingRecord* naive_donor(
    const coupling::CouplingDatabase& db, const serve::QueryKey& q,
    std::size_t start) {
  const auto nearer = [&q](int a, int b) {
    const long long an = std::max(a, q.ranks);
    const long long ad = std::min(a, q.ranks);
    const long long bn = std::max(b, q.ranks);
    const long long bd = std::min(b, q.ranks);
    return an * bd < bn * ad;  // an/ad < bn/bd
  };
  const coupling::CouplingRecord* best = nullptr;
  for (const coupling::CouplingRecord& r : db.records()) {
    if (r.key.application != q.application || r.key.config != q.config ||
        r.key.chain_length != q.chain_length || r.key.chain_start != start) {
      continue;
    }
    if (best == nullptr || nearer(r.key.ranks, best->key.ranks) ||
        (!nearer(best->key.ranks, r.key.ranks) &&
         r.key.ranks < best->key.ranks)) {
      best = &r;
    }
  }
  return best;
}

/// True when the store holds exactly one record for each chain start of
/// the queried (application, config, ranks, chain_length) and nothing
/// else: the complete group whose alpha the snapshot precomputes.
bool naive_exact(const coupling::CouplingDatabase& db, const serve::QueryKey& q,
                 std::size_t loop_size) {
  std::vector<std::size_t> starts;
  for (const coupling::CouplingRecord& r : db.records()) {
    if (r.key.application == q.application && r.key.config == q.config &&
        r.key.ranks == q.ranks && r.key.chain_length == q.chain_length) {
      starts.push_back(r.key.chain_start);
    }
  }
  std::sort(starts.begin(), starts.end());
  if (starts.size() != loop_size) return false;
  for (std::size_t s = 0; s < loop_size; ++s) {
    if (starts[s] != s) return false;
  }
  return true;
}

serve::Prediction naive_predict(const serve::PredictorSnapshot& snapshot,
                                const DiffWorkload& workload,
                                const serve::QueryKey& q) {
  serve::Prediction p;
  p.key = q;
  p.snapshot_version = snapshot.version();
  if (!DiffWorkload::known(q.application, q.config)) {
    p.error = "unknown application/config '" + q.application + "/" +
              q.config + "'";
    return p;
  }
  if (q.ranks < 1) {
    p.error = "ranks must be >= 1";
    return p;
  }
  if (q.chain_length < 1) {
    p.error = "chain length must be >= 1";
    return p;
  }

  coupling::PredictionInputs inputs;
  std::size_t loop_size = 0;
  if (workload.valid_cell(q.application, q.config, q.ranks)) {
    const serve::CellInputs cell =
        workload.measure_cell(q.application, q.config, q.ranks);
    inputs = cell.inputs;
    loop_size = cell.loop_size;
    p.actual_s = cell.actual_s;
    p.summation_s = cell.summation_s;
    p.inputs_source = "measured";
  } else {
    const auto* fitted = snapshot.fitted_models_for(q.application);
    const auto shape = workload.shape(q.application, q.config);
    if (fitted == nullptr || !shape.has_value()) {
      p.error = "cell " + q.application + "/" + q.config + "/P=" +
                std::to_string(q.ranks) +
                " cannot be measured and no scaling models are fitted";
      return p;
    }
    inputs.iterations = shape->iterations;
    std::vector<std::string> forms;
    for (const model::PiecewiseModel& pw : *fitted) {
      const double ranks = static_cast<double>(q.ranks);
      inputs.isolated_means.push_back(pw.evaluate(shape->grid_extent, ranks));
      forms.push_back(pw.segment_for(ranks).model.term_names());
    }
    for (const std::string& form : forms) {
      if (!p.model_form.empty()) p.model_form += ',';
      p.model_form += form;
    }
    loop_size = fitted->size();
    p.summation_s = coupling::summation_prediction(inputs);
    p.inputs_source = "model";
  }
  if (q.chain_length > loop_size) {
    p.error = "chain length " + std::to_string(q.chain_length) +
              " exceeds loop size " + std::to_string(loop_size);
    return p;
  }

  const bool exact = naive_exact(snapshot.database(), q, loop_size);
  std::vector<coupling::ChainCoupling> chains;
  for (std::size_t start = 0; start < loop_size; ++start) {
    const coupling::CouplingRecord* donor =
        naive_donor(snapshot.database(), q, start);
    if (donor == nullptr) {
      p.error = "no coupling data for " + q.application + "/" + q.config +
                " q=" + std::to_string(q.chain_length);
      return p;
    }
    coupling::ChainCoupling c;
    c.start = start;
    c.length = q.chain_length;
    for (std::size_t i = 0; i < q.chain_length; ++i) {
      c.members.push_back((start + i) % loop_size);
    }
    c.chain_time = donor->chain_time;
    c.isolated_sum = donor->isolated_sum;
    chains.push_back(std::move(c));
    if (start == 0 && !exact) p.donor_ranks = donor->key.ranks;
  }
  // alpha_k = sum_{S : k in S} C_S P_S / sum_{S : k in S} P_S over the chains
  // in start order, 1 without weight; then T = Tinit + I sum_k alpha_k T_k
  // + Tfinal in loop order.
  double loop = 0.0;
  for (std::size_t k = 0; k < inputs.isolated_means.size(); ++k) {
    double weighted = 0.0;
    double weight = 0.0;
    for (const coupling::ChainCoupling& c : chains) {
      if (std::find(c.members.begin(), c.members.end(), k) ==
          c.members.end()) {
        continue;
      }
      weighted += c.chain_time / c.isolated_sum * c.chain_time;
      weight += c.chain_time;
    }
    const double alpha = weight > 0.0 ? weighted / weight : 1.0;
    loop += alpha * inputs.isolated_means[k];
  }
  p.coupling_s = inputs.prologue_s +
                 static_cast<double>(inputs.iterations) * loop +
                 inputs.epilogue_s;
  p.alpha_source = exact ? "exact" : "nearest";
  if (std::isfinite(p.actual_s) && p.actual_s > 0.0) {
    p.coupling_error = trace::relative_error(p.coupling_s, p.actual_s);
    p.summation_error = trace::relative_error(p.summation_s, p.actual_s);
  }
  if (p.inputs_source == "model") {
    p.source = "model";
  } else {
    p.source = exact ? "exact" : "nearest-donor";
  }
  p.ok = true;
  return p;
}

// --- Seeded stores ------------------------------------------------------------

class StoreSpace {
 public:
  explicit StoreSpace(std::uint32_t seed) : rng_(seed) {}

  /// A stored key: chain starts up to 5 (past "B"'s and "BT"'s loops), and
  /// rank counts holding log-equidistant pairs around 4, 6 and 12.
  coupling::CouplingKey key() {
    static const char* const kApps[] = {"B", "BT", "BTX"};
    static const char* const kConfigs[] = {"A", "W"};
    static const int kRanks[] = {1, 2, 3, 4, 5, 8, 9, 12, 16, 18, 36};
    return {pick(kApps), pick(kConfigs), pick(kRanks), 1 + below(4),
            below(6)};
  }

  /// A query: mostly stored rank counts (exact groups) and ones that
  /// cannot run (the model path), else any count, even below 1; unknown
  /// names; chain lengths 0 and past every loop.
  serve::QueryKey query() {
    static const char* const kApps[] = {"B", "BT", "BTX", "B", "BT", "BTX",
                                        "BTY"};
    static const char* const kConfigs[] = {"A", "W", "A", "W", "X"};
    static const int kStored[] = {1, 2, 3, 4, 5, 8, 9, 12, 16, 18, 36};
    static const int kModel[] = {5, 7, 10};
    const std::size_t draw = below(6);
    const int ranks = draw < 2   ? pick(kStored)
                      : draw < 4 ? pick(kModel)
                                 : static_cast<int>(below(42)) - 1;
    return {pick(kApps), pick(kConfigs), ranks, below(6)};
  }

  coupling::CouplingRecord record(coupling::CouplingKey key) {
    const double isolated = 1e-3 * static_cast<double>(1 + below(100000));
    const double coupling = 0.6 + 1e-5 * static_cast<double>(below(80000));
    return {std::move(key), isolated * coupling, isolated};
  }

  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  template <class T, std::size_t N>
  T pick(const T (&from)[N]) {
    return from[below(N)];
  }

  std::mt19937 rng_;
};

/// Random keys, later duplicates of every fourth of them, and complete
/// groups (some at rank counts that cannot run), all installed through
/// adopt(); then record() replacing stored keys and adding new ones.
/// `groups` receives a query for each complete group, which later records
/// may have made partial again.
coupling::CouplingDatabase seeded_store(StoreSpace& space,
                                        std::vector<serve::QueryKey>* groups) {
  std::vector<coupling::CouplingRecord> records;
  for (int i = 0; i < 150; ++i) records.push_back(space.record(space.key()));
  for (std::size_t i = 0; i < 150; i += 4) {
    records.push_back(space.record(records[i].key));
  }
  for (int g = 0; g < 14; ++g) {
    coupling::CouplingKey key = space.key();
    const std::size_t loop = DiffWorkload::loop_size(key.application);
    key.chain_length = 1 + space.below(loop);
    groups->push_back(
        {key.application, key.config, key.ranks, key.chain_length});
    for (std::size_t start = 0; start < loop; ++start) {
      key.chain_start = start;
      records.push_back(space.record(key));
    }
  }
  coupling::CouplingDatabase db;
  db.adopt(std::move(records));
  for (int i = 0; i < 60; ++i) {
    const coupling::CouplingKey key =
        i % 2 == 0 ? db.records()[space.below(db.size())].key : space.key();
    db.record(space.record(key));
  }
  return db;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_answer(const serve::Prediction& got,
                        const serve::Prediction& want) {
  ASSERT_EQ(got.ok, want.ok) << got.error << " | " << want.error;
  EXPECT_EQ(got.error, want.error);
  if (!want.ok) return;
  EXPECT_EQ(bits(got.coupling_s), bits(want.coupling_s))
      << got.coupling_s << " vs " << want.coupling_s;
  EXPECT_EQ(bits(got.summation_s), bits(want.summation_s));
  EXPECT_EQ(bits(got.actual_s), bits(want.actual_s));
  EXPECT_EQ(bits(got.coupling_error), bits(want.coupling_error));
  EXPECT_EQ(bits(got.summation_error), bits(want.summation_error));
  EXPECT_EQ(got.alpha_source, want.alpha_source);
  EXPECT_EQ(got.inputs_source, want.inputs_source);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.model_form, want.model_form);
  EXPECT_EQ(got.donor_ranks, want.donor_ranks);
  EXPECT_EQ(got.key, want.key);
}

TEST(EngineDifferentialTest, FallbackAnswersMatchTheNaiveEvaluationBitForBit) {
  std::size_t nearest = 0;
  std::size_t model = 0;
  std::size_t exact = 0;
  std::size_t refused = 0;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StoreSpace space(seed);
    const DiffWorkload workload;
    serve::QueryEngine engine(&workload);
    std::vector<serve::QueryKey> queries;
    const serve::PredictorSnapshot snapshot(
        seeded_store(space, &queries), seed,
        [&engine](const std::string& a, const std::string& c, int p) {
          return engine.cell(a, c, p);
        },
        serve::SnapshotOptions{true, false});
    while (queries.size() < 1500) queries.push_back(space.query());
    for (const serve::QueryKey& q : queries) {
      SCOPED_TRACE(q.application + "/" + q.config + "/P=" +
                   std::to_string(q.ranks) +
                   " q=" + std::to_string(q.chain_length));
      const serve::Prediction got = engine.predict(snapshot, q);
      expect_same_answer(got, naive_predict(snapshot, workload, q));
      if (!got.ok) {
        ++refused;
      } else if (got.source == "model") {
        ++model;
      } else if (got.source == "nearest-donor") {
        ++nearest;
      } else {
        ++exact;
      }
    }
  }
  // Every kind of answer occurred often enough to mean something.
  EXPECT_GT(nearest, 1000u) << nearest;
  EXPECT_GT(model, 1000u) << model;
  EXPECT_GT(exact, 20u) << exact;
  EXPECT_GT(refused, 1000u) << refused;
}

}  // namespace
}  // namespace kcoup

// Tests for the prediction-service core: latency histogram, sharded LRU,
// wire protocol, snapshot construction/hot-reload, and the query engine's
// exact / nearest / model prediction paths — including bit-identity between
// served predictions and in-process run_study() values.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "coupling/analysis.hpp"
#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/sharded_lru.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "support/latency_histogram.hpp"

namespace kcoup {
namespace {

// --- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZeros) {
  support::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, MinMaxMeanAreExact) {
  support::LatencyHistogram h;
  h.record(0.001);
  h.record(0.002);
  h.record(0.009);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.009);
  EXPECT_DOUBLE_EQ(h.mean(), 0.004);
}

TEST(LatencyHistogram, QuantilesWithinBucketResolution) {
  support::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);  // 1ms .. 100ms
  // Log-linear buckets are 1/16 of an octave wide: worst-case relative
  // error is under 7 %.
  EXPECT_NEAR(h.quantile(0.50), 0.050, 0.050 * 0.07);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.095 * 0.07);
  EXPECT_NEAR(h.quantile(0.99), 0.099, 0.099 * 0.07);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(LatencyHistogram, DropsNonFiniteAndNegative) {
  support::LatencyHistogram h;
  h.record(std::nan(""));
  h.record(-1.0);
  EXPECT_EQ(h.count(), 0u);
  h.record(0.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogram, OutOfRangeValuesClampButStayExactAtEdges) {
  support::LatencyHistogram h;
  h.record(1e-9);   // below 2^-20 s
  h.record(1000.0); // above 2^8 s
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Quantiles clamp to the observed range, never beyond it.
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
}

TEST(LatencyHistogram, MergeMatchesRecordingEverythingInOne) {
  support::LatencyHistogram a, b, all;
  for (int i = 1; i <= 40; ++i) {
    const double v = 1e-4 * i;
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

// --- ShardedLruCache --------------------------------------------------------

TEST(ShardedLru, HitMissAccounting) {
  serve::ShardedLruCache<int, int> cache(8, 2);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 10);
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 10);
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
}

TEST(ShardedLru, PutUpdatesExistingKey) {
  serve::ShardedLruCache<int, int> cache(4, 1);
  cache.put(1, 10);
  cache.put(1, 20);
  EXPECT_EQ(*cache.get(1), 20);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ShardedLru, EvictsLeastRecentlyUsedAtCapacity) {
  serve::ShardedLruCache<int, int> cache(2, 1);  // one shard: strict LRU
  cache.put(1, 10);
  cache.put(2, 20);
  ASSERT_TRUE(cache.get(1).has_value());  // 1 is now most recent
  cache.put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ShardedLru, CapacityZeroDisablesCaching) {
  serve::ShardedLruCache<int, int> cache(0, 4);
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ShardedLru, ConcurrentPutGetIsSafe) {
  serve::ShardedLruCache<int, int> cache(64, 8);
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < 500; ++i) {
        const int key = (t * 31 + i) % 100;
        cache.put(key, key * 7);
        const auto got = cache.get(key);
        if (got.has_value() && *got != key * 7) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.stats().size, 64u);
}

// --- Wire protocol ----------------------------------------------------------

TEST(Protocol, PingAndStatsRoundTrip) {
  const auto ping = serve::parse_request(serve::ping_request());
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->op, serve::RequestOp::kPing);
  const auto stats = serve::parse_request(serve::stats_request());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->op, serve::RequestOp::kStats);
}

TEST(Protocol, PredictRequestRoundTrip) {
  const serve::QueryKey q{"BT", "W", 9, 3};
  const auto parsed = serve::parse_request(serve::predict_request(q));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, serve::RequestOp::kPredict);
  ASSERT_EQ(parsed->queries.size(), 1u);
  EXPECT_EQ(parsed->queries[0], q);
}

TEST(Protocol, BatchRequestRoundTrip) {
  const std::vector<serve::QueryKey> queries{
      {"BT", "S", 4, 2}, {"SP", "W", 9, 3}, {"LU", "A", 8, 2}};
  const auto parsed = serve::parse_request(serve::batch_request(queries));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, serve::RequestOp::kBatch);
  ASSERT_EQ(parsed->queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(parsed->queries[i], queries[i]);
  }
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_FALSE(serve::parse_request("").has_value());
  EXPECT_FALSE(serve::parse_request("not json").has_value());
  EXPECT_FALSE(serve::parse_request("{}").has_value());
  EXPECT_FALSE(serve::parse_request("{\"op\":\"nope\"}").has_value());
  // predict with missing fields
  EXPECT_FALSE(serve::parse_request("{\"op\":\"predict\"}").has_value());
  EXPECT_FALSE(
      serve::parse_request("{\"op\":\"predict\",\"app\":\"BT\"}").has_value());
  // non-positive ranks / chain
  EXPECT_FALSE(serve::parse_request("{\"op\":\"predict\",\"app\":\"BT\","
                                    "\"config\":\"S\",\"ranks\":0,"
                                    "\"chain\":2}")
                   .has_value());
  // batch with an empty / malformed queries array
  EXPECT_FALSE(
      serve::parse_request("{\"op\":\"batch\",\"queries\":[]}").has_value());
  EXPECT_FALSE(serve::parse_request("{\"op\":\"batch\",\"queries\":[{}]}")
                   .has_value());
  EXPECT_FALSE(serve::parse_request("{\"op\":\"batch\",\"queries\":")
                   .has_value());
}

TEST(Protocol, PredictionSurvivesRoundTripBitIdentically) {
  serve::Prediction p;
  p.ok = true;
  p.key = {"BT", "W", 16, 3};
  p.coupling_s = 0.123456789012345678;
  p.summation_s = 1.0 / 3.0;
  p.actual_s = 0.3141592653589793;
  p.coupling_error = 0.05;
  p.summation_error = 0.10000000000000001;
  p.alpha_source = "exact";
  p.inputs_source = "measured";
  p.source = "exact";
  p.cache_hit = true;
  p.snapshot_version = 7;

  const auto back = serve::parse_prediction(serve::prediction_json(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->key, p.key);
  EXPECT_EQ(back->coupling_s, p.coupling_s);
  EXPECT_EQ(back->summation_s, p.summation_s);
  EXPECT_EQ(back->actual_s, p.actual_s);
  EXPECT_EQ(back->coupling_error, p.coupling_error);
  EXPECT_EQ(back->summation_error, p.summation_error);
  EXPECT_EQ(back->alpha_source, "exact");
  EXPECT_EQ(back->inputs_source, "measured");
  EXPECT_EQ(back->source, "exact");
  EXPECT_TRUE(back->cache_hit);
  EXPECT_EQ(back->snapshot_version, 7u);
}

TEST(Protocol, SourceAndModelFormFieldsRoundTrip) {
  serve::Prediction p;
  p.ok = true;
  p.key = {"BT", "C", 1024, 2};
  p.coupling_s = 0.25;
  p.alpha_source = "nearest";
  p.inputs_source = "model";
  p.source = "model";
  p.model_form = "1+n^3/P,1/P,1+log2(P)";

  const std::string json = serve::prediction_json(p);
  // The wire JSON names the fallback path and the selected model forms.
  EXPECT_NE(json.find("\"source\":\"model\""), std::string::npos);
  EXPECT_NE(json.find("\"model_form\":\"1+n^3/P,1/P,1+log2(P)\""),
            std::string::npos);
  const auto back = serve::parse_prediction(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->source, "model");
  EXPECT_EQ(back->model_form, "1+n^3/P,1/P,1+log2(P)");

  // Empty source/model_form (error predictions) must stay absent, so old
  // clients see exactly the pre-field wire bytes.
  serve::Prediction err;
  err.ok = false;
  err.error = "nope";
  err.key = {"BT", "C", 4, 2};
  const std::string err_json = serve::prediction_json(err);
  EXPECT_EQ(err_json.find("\"source\""), std::string::npos);
  EXPECT_EQ(err_json.find("\"model_form\""), std::string::npos);
}

TEST(Protocol, NonFiniteFieldsComeBackAsNaN) {
  serve::Prediction p;
  p.ok = true;
  p.key = {"LU", "B", 8, 2};
  p.coupling_s = 0.5;  // everything else stays NaN
  const auto back = serve::parse_prediction(serve::prediction_json(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->coupling_s, 0.5);
  EXPECT_TRUE(std::isnan(back->actual_s));
  EXPECT_TRUE(std::isnan(back->coupling_error));
}

TEST(Protocol, ErrorPredictionRoundTrips) {
  serve::Prediction p;
  p.ok = false;
  p.error = "no coupling data for \"X\"";
  p.key = {"XX", "Z", 3, 9};
  const auto back = serve::parse_prediction(serve::prediction_json(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, p.error);
}

serve::ServeMetrics sample_serve_metrics() {
  serve::ServeMetrics m;
  m.workers = 4;
  m.connections = 3;
  m.requests = 1234567;
  m.predictions = 8;
  m.errors = 1;
  m.rejected_overload = 2;
  m.malformed_frames = 3;
  m.oversized_frames = 4;
  m.cache_hits = 5;
  m.cache_misses = 6;
  m.cache_evictions = 7;
  m.cache_size = 8;
  m.snapshot_reloads = 9;
  m.snapshot_reload_failures = 10;
  m.snapshot_version = 11;
  m.db_records = 12;
  m.latency_count = 13;
  m.latency_p50_s = 0.000123456789;
  m.latency_p95_s = 0.5;
  m.latency_p99_s = 1234567.125;
  m.latency_mean_s = 1e-9;
  m.latency_max_s = 1.5;
  m.uptime_s = 12.5;
  return m;
}

TEST(ServeMetricsTest, RenderersKeepTheirBytes) {
  const serve::ServeMetrics m = sample_serve_metrics();
  EXPECT_EQ(m.to_jsonl(),
            R"({"workers":4,"connections":3,"requests":1234567,)"
            R"("predictions":8,"errors":1,"rejected_overload":2,)"
            R"("malformed_frames":3,"oversized_frames":4,"cache_hits":5,)"
            R"("cache_misses":6,"cache_evictions":7,"cache_size":8,)"
            R"("snapshot_reloads":9,"snapshot_reload_failures":10,)"
            R"("snapshot_version":11,"db_records":12,"latency_count":13,)"
            R"("latency_p50_s":0.000123457,"latency_p95_s":0.5,)"
            R"("latency_p99_s":1.23457e+06,"latency_mean_s":1e-09,)"
            R"("latency_max_s":1.5,"uptime_s":12.5})"
            "\n");
  EXPECT_EQ(m.to_csv(),
            "workers,connections,requests,predictions,errors,"
            "rejected_overload,malformed_frames,oversized_frames,cache_hits,"
            "cache_misses,cache_evictions,cache_size,snapshot_reloads,"
            "snapshot_reload_failures,snapshot_version,db_records,"
            "latency_count,latency_p50_s,latency_p95_s,latency_p99_s,"
            "latency_mean_s,latency_max_s,uptime_s\n"
            "4,3,1234567,8,1,2,3,4,5,6,7,8,9,10,11,12,13,0.000123457,0.5,"
            "1.23457e+06,1e-09,1.5,12.5\n");
  EXPECT_EQ(m.to_table().to_string(),
            "Serve metrics\n"
            "  metric                    value           \n"
            "  ------------------------------------------\n"
            "  workers                   4               \n"
            "  connections               3               \n"
            "  requests                  1234567         \n"
            "  predictions               8               \n"
            "  errors                    1               \n"
            "  rejected overload         2               \n"
            "  malformed frames          3               \n"
            "  oversized frames          4               \n"
            "  cache hits                5               \n"
            "  cache misses              6               \n"
            "  cache evictions           7               \n"
            "  cache size                8               \n"
            "  snapshot reloads          9               \n"
            "  snapshot reload failures  10              \n"
            "  snapshot version          11              \n"
            "  db records                12              \n"
            "  latency samples           13              \n"
            "  latency p50               0.000123 s      \n"
            "  latency p95               0.500000 s      \n"
            "  latency p99               1234567.125000 s\n"
            "  latency mean              0.000000 s      \n"
            "  latency max               1.500000 s      \n"
            "  uptime                    12.500000 s     \n");
}

TEST(ServeMetricsTest, FromJsonlInvertsToJsonl) {
  serve::ServeMetrics m = sample_serve_metrics();
  m.latency_p50_s = 0.25;  // to_jsonl keeps 6 significant digits
  m.latency_p99_s = 0.75;
  m.latency_mean_s = 0.125;
  const auto back = serve::ServeMetrics::from_jsonl(m.to_jsonl());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_jsonl(), m.to_jsonl());
  EXPECT_EQ(back->latency_mean_s, 0.125);
}

TEST(ServeMetricsTest, FromJsonlRefusesIntegersOutsideTheirType) {
  // A stats frame extends the record: extra keys are skipped, and a
  // missing one reads as 0.
  const auto frame = serve::ServeMetrics::from_jsonl(
      R"({"ok":true,"requests":5,"windows":{"1s":{"requests":-5}}})");
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->requests, 5u);
  EXPECT_EQ(frame->errors, 0u);
  // -5 used to print as 18446744073709551611; 1e300 was an undefined cast.
  for (const char* bad :
       {R"({"ok":true,"requests":-5})", R"({"ok":true,"requests":1e300})",
        R"({"workers":-1})", R"({"latency_count":18446744073709551616})",
        "not json"}) {
    EXPECT_FALSE(serve::ServeMetrics::from_jsonl(bad).has_value()) << bad;
  }
}

// --- Synthetic workload for engine/snapshot tests ---------------------------

/// Deterministic 3-kernel workload: means are closed-form in (ranks), so
/// every test value is reproducible and instant.  Ranks 5 is "unrunnable"
/// to exercise the scaling-model fallback.
class FakeWorkload final : public serve::Workload {
 public:
  static constexpr std::size_t kLoop = 3;

  bool valid_cell(const std::string& application, const std::string& config,
                  int ranks) const override {
    return application == "APP" && config == "X" && ranks >= 1 &&
           ranks != 5;
  }

  serve::CellInputs measure_cell(const std::string& application,
                                 const std::string& config,
                                 int ranks) const override {
    if (!valid_cell(application, config, ranks)) {
      throw std::invalid_argument("FakeWorkload: invalid cell");
    }
    measured_cells_.fetch_add(1);
    serve::CellInputs cell;
    for (std::size_t k = 0; k < kLoop; ++k) {
      cell.inputs.isolated_means.push_back(mean(k, ranks));
    }
    cell.inputs.prologue_s = 0.001;
    cell.inputs.epilogue_s = 0.002;
    cell.inputs.iterations = 10;
    cell.loop_size = kLoop;
    cell.grid_extent = 12.0;
    cell.summation_s = coupling::summation_prediction(cell.inputs);
    cell.actual_s = cell.summation_s * 1.1;
    return cell;
  }

  std::optional<serve::CellShape> shape(
      const std::string& application,
      const std::string& config) const override {
    if (application != "APP" || config != "X") return std::nullopt;
    return serve::CellShape{12.0, 10};
  }

  [[nodiscard]] int measured_cells() const { return measured_cells_.load(); }

  static double mean(std::size_t k, int ranks) {
    return 0.01 * static_cast<double>(k + 1) / static_cast<double>(ranks);
  }

 private:
  mutable std::atomic<int> measured_cells_{0};
};

/// A complete q=2 chain group for (APP, X, ranks): one record per start,
/// couplings slightly above 1 so predictions differ from summation.
void add_group(coupling::CouplingDatabase* db, int ranks) {
  for (std::size_t start = 0; start < FakeWorkload::kLoop; ++start) {
    coupling::CouplingRecord r;
    r.key = {"APP", "X", ranks, 2, start};
    r.isolated_sum = FakeWorkload::mean(start, ranks) +
                     FakeWorkload::mean((start + 1) % FakeWorkload::kLoop,
                                        ranks);
    r.chain_time =
        r.isolated_sum * (1.05 + 0.01 * static_cast<double>(start));
    db->record(r);
  }
}

// --- PredictorSnapshot ------------------------------------------------------

TEST(PredictorSnapshot, PrecomputesAlphaForCompleteGroupsOnly) {
  coupling::CouplingDatabase db;
  add_group(&db, 4);
  // Partial group at P=9: only one of three starts.
  coupling::CouplingRecord partial;
  partial.key = {"APP", "X", 9, 2, 0};
  partial.chain_time = 0.01;
  partial.isolated_sum = 0.01;
  db.record(partial);

  const serve::PredictorSnapshot snapshot(db, 1, {}, {false});
  EXPECT_EQ(snapshot.alpha_group_count(), 1u);

  const serve::AlphaGroup* group = snapshot.find_alpha("APP", "X", 4, 2);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->loop_size, FakeWorkload::kLoop);
  ASSERT_EQ(group->chains.size(), FakeWorkload::kLoop);
  // Chains come back exactly as the campaign assembly builds them.
  for (std::size_t start = 0; start < FakeWorkload::kLoop; ++start) {
    EXPECT_EQ(group->chains[start].start, start);
    EXPECT_EQ(group->chains[start].length, 2u);
  }
  // alpha matches coupling_coefficients over the same chains, bit for bit.
  const auto alpha =
      coupling::coupling_coefficients(group->loop_size, group->chains);
  ASSERT_EQ(group->alpha.size(), alpha.size());
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    EXPECT_EQ(group->alpha[k], alpha[k]);
  }

  EXPECT_EQ(snapshot.find_alpha("APP", "X", 9, 2), nullptr);  // partial
  EXPECT_EQ(snapshot.find_alpha("APP", "X", 4, 3), nullptr);  // absent q
}

TEST(PredictorSnapshot, FitsScalingModelsFromMeasurableCells) {
  coupling::CouplingDatabase db;
  for (int p : {1, 2, 3, 4}) add_group(&db, p);  // 4 measurable cells

  FakeWorkload workload;
  const serve::PredictorSnapshot snapshot(
      db, 1,
      [&workload](const std::string& a, const std::string& c, int p)
          -> std::optional<serve::CellInputs> {
        if (!workload.valid_cell(a, c, p)) return std::nullopt;
        return workload.measure_cell(a, c, p);
      },
      {true});
  EXPECT_EQ(snapshot.fitted_application_count(), 1u);
  const auto* models = snapshot.fitted_models_for("APP");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->size(), FakeWorkload::kLoop);
  // The fit must track the 1/P-shaped means closely inside the sampled
  // range.
  for (std::size_t k = 0; k < models->size(); ++k) {
    const double predicted = (*models)[k].evaluate(12.0, 2.0);
    EXPECT_NEAR(predicted, FakeWorkload::mean(k, 2),
                0.25 * FakeWorkload::mean(k, 2));
  }
  EXPECT_EQ(snapshot.fitted_models_for("OTHER"), nullptr);
}

// --- QueryEngine (synthetic workload) ---------------------------------------

class QueryEngineFake : public ::testing::Test {
 protected:
  void SetUp() override {
    add_group(&db_, 4);
    add_group(&db_, 16);
  }

  coupling::CouplingDatabase db_;
  FakeWorkload workload_;
};

TEST_F(QueryEngineFake, ExactGroupUsesPrecomputedAlpha) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine engine(&workload_);
  const auto p = engine.predict(snapshot, {"APP", "X", 4, 2});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.alpha_source, "exact");
  EXPECT_EQ(p.inputs_source, "measured");
  // Bit-identical to composing by hand from the snapshot's group.
  const serve::AlphaGroup* group = snapshot.find_alpha("APP", "X", 4, 2);
  ASSERT_NE(group, nullptr);
  const auto cell = workload_.measure_cell("APP", "X", 4);
  EXPECT_EQ(p.coupling_s,
            coupling::alpha_prediction(cell.inputs, group->alpha));
  EXPECT_EQ(p.summation_s, cell.summation_s);
  EXPECT_EQ(p.actual_s, cell.actual_s);
}

TEST_F(QueryEngineFake, FallsBackToNearestRanksDonor) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine engine(&workload_);
  // P=6 measurable but no group: nearest donor is P=4 (log-scale).
  const auto p = engine.predict(snapshot, {"APP", "X", 6, 2});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.alpha_source, "nearest");
  const auto donor =
      snapshot.database().reuse_chains_for("APP", "X", 6, 2,
                                           FakeWorkload::kLoop);
  ASSERT_FALSE(donor.empty());
  const auto cell = workload_.measure_cell("APP", "X", 6);
  EXPECT_EQ(p.coupling_s, coupling::coupling_prediction(cell.inputs, donor));
}

TEST_F(QueryEngineFake, FallsBackToScalingModelsForUnrunnableCells) {
  FakeWorkload workload;
  serve::QueryEngine engine(&workload);
  coupling::CouplingDatabase db;
  for (int p : {1, 2, 3, 4}) add_group(&db, p);
  const serve::PredictorSnapshot snapshot(
      db, 1,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      {true});
  // Ranks 5 cannot be measured; models + nearest donor chains carry it.
  const auto p = engine.predict(snapshot, {"APP", "X", 5, 2});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.inputs_source, "model");
  EXPECT_EQ(p.alpha_source, "nearest");
  EXPECT_TRUE(std::isfinite(p.coupling_s));
  EXPECT_TRUE(std::isnan(p.actual_s));  // nothing ran, no error columns
  EXPECT_TRUE(std::isnan(p.coupling_error));
  // The piecewise models answer on the model path: the closed-form 1/P
  // workload selects exactly {1/P} per kernel, so the extrapolated inputs
  // are the true means and the form is reported.
  EXPECT_EQ(p.source, "model");
  EXPECT_EQ(p.model_form, "1/P,1/P,1/P");
  const auto* fitted = snapshot.fitted_models_for("APP");
  ASSERT_NE(fitted, nullptr);
  ASSERT_EQ(fitted->size(), FakeWorkload::kLoop);
  for (std::size_t k = 0; k < fitted->size(); ++k) {
    EXPECT_NEAR((*fitted)[k].evaluate(12.0, 5.0), FakeWorkload::mean(k, 5),
                1e-9 * FakeWorkload::mean(k, 5));
  }
}

TEST_F(QueryEngineFake, SourceNamesEachFallbackPath) {
  FakeWorkload workload;
  serve::QueryEngine engine(&workload);
  coupling::CouplingDatabase db;
  for (int p : {1, 2, 3, 4}) add_group(&db, p);
  const serve::PredictorSnapshot snapshot(
      db, 1,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      {true});

  const auto exact = engine.predict(snapshot, {"APP", "X", 4, 2});
  ASSERT_TRUE(exact.ok) << exact.error;
  EXPECT_EQ(exact.source, "exact");
  EXPECT_TRUE(exact.model_form.empty());

  const auto donor = engine.predict(snapshot, {"APP", "X", 6, 2});
  ASSERT_TRUE(donor.ok) << donor.error;
  EXPECT_EQ(donor.source, "nearest-donor");
  EXPECT_TRUE(donor.model_form.empty());

  const auto model = engine.predict(snapshot, {"APP", "X", 5, 2});
  ASSERT_TRUE(model.ok) << model.error;
  EXPECT_EQ(model.source, "model");
  EXPECT_FALSE(model.model_form.empty());

  const auto error = engine.predict(snapshot, {"NOPE", "X", 4, 2});
  ASSERT_FALSE(error.ok);
  EXPECT_TRUE(error.source.empty());
}

/// Property: on the dense (measurable) grid the piecewise models must be
/// invisible — every prediction that does not need the model fallback has
/// to serialize byte-identically whether the snapshot fitted models or
/// not.  Only the unrunnable cell is allowed to differ (error -> answer).
TEST_F(QueryEngineFake, DenseGridPredictionsUnaffectedByFittedModels) {
  coupling::CouplingDatabase db;
  for (int p : {1, 2, 3, 4, 8, 16}) add_group(&db, p);
  FakeWorkload with_workload;
  serve::QueryEngine with_engine(&with_workload);
  const serve::PredictorSnapshot with_models(
      db, 1,
      [&with_engine](const std::string& a, const std::string& c, int p) {
        return with_engine.cell(a, c, p);
      },
      {true});
  const serve::PredictorSnapshot without_models(db, 1, {}, {false});
  ASSERT_GT(with_models.fitted_application_count(), 0u);
  ASSERT_EQ(without_models.fitted_application_count(), 0u);

  FakeWorkload bare_workload;
  serve::QueryEngine without_engine(&bare_workload);
  // Warm both memos so the cache hit/miss marker matches: the snapshot
  // build already touched with_engine's cells.
  for (int ranks = 1; ranks <= 20; ++ranks) {
    if (ranks == 5) continue;
    (void)with_engine.cell("APP", "X", ranks);
    (void)without_engine.cell("APP", "X", ranks);
  }
  for (int ranks = 1; ranks <= 20; ++ranks) {
    if (ranks == 5) continue;  // the one cell that needs the model path
    for (const std::size_t chain : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}}) {
      const serve::QueryKey q{"APP", "X", ranks, chain};
      const std::string a =
          serve::prediction_json(with_engine.predict(with_models, q));
      const std::string b =
          serve::prediction_json(without_engine.predict(without_models, q));
      EXPECT_EQ(a, b) << "P=" << ranks << " q=" << chain;
    }
  }
}

TEST_F(QueryEngineFake, RefusesUnknownCellsAndBadChainLengths) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine engine(&workload_);
  EXPECT_FALSE(engine.predict(snapshot, {"NOPE", "X", 4, 2}).ok);
  EXPECT_FALSE(engine.predict(snapshot, {"APP", "X", 0, 2}).ok);
  const auto too_long = engine.predict(snapshot, {"APP", "X", 4, 99});
  EXPECT_FALSE(too_long.ok);
  EXPECT_NE(too_long.error.find("exceeds loop size"), std::string::npos);
}

TEST_F(QueryEngineFake, MemoizesCellMeasurements) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine engine(&workload_);
  const auto first = engine.predict(snapshot, {"APP", "X", 4, 2});
  const auto second = engine.predict(snapshot, {"APP", "X", 4, 2});
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(workload_.measured_cells(), 1);
  EXPECT_EQ(first.coupling_s, second.coupling_s);
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(QueryEngineFake, CacheOnAndOffAreBitIdentical) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine cached(&workload_, {1024, 8});
  serve::QueryEngine uncached(&workload_, {0, 8});
  for (int ranks : {4, 6, 16}) {
    const serve::QueryKey q{"APP", "X", ranks, 2};
    const auto a = cached.predict(snapshot, q);
    const auto b = uncached.predict(snapshot, q);
    const auto a2 = cached.predict(snapshot, q);   // memo hit
    const auto b2 = uncached.predict(snapshot, q); // re-measured
    ASSERT_TRUE(a.ok && b.ok && a2.ok && b2.ok);
    EXPECT_EQ(a.coupling_s, b.coupling_s) << "P=" << ranks;
    EXPECT_EQ(a.coupling_s, a2.coupling_s);
    EXPECT_EQ(a.coupling_s, b2.coupling_s);
    EXPECT_EQ(a.summation_s, b.summation_s);
    EXPECT_EQ(a.actual_s, b.actual_s);
    EXPECT_TRUE(a2.cache_hit);
    EXPECT_FALSE(b2.cache_hit);
  }
  EXPECT_EQ(uncached.cache_stats().size, 0u);
}

TEST_F(QueryEngineFake, EvictsAtCapacity) {
  const serve::PredictorSnapshot snapshot(db_, 1, {}, {false});
  serve::QueryEngine engine(&workload_, {1, 1});  // one-entry cache
  ASSERT_TRUE(engine.predict(snapshot, {"APP", "X", 4, 2}).ok);
  ASSERT_TRUE(engine.predict(snapshot, {"APP", "X", 16, 2}).ok);
  ASSERT_TRUE(engine.predict(snapshot, {"APP", "X", 4, 2}).ok);
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.size, 1u);
  EXPECT_EQ(workload_.measured_cells(), 3);  // third call re-measured
}

// --- SnapshotSource: hot reload ---------------------------------------------

class SnapshotSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("kcoup_serve_db_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".csv");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write_db(const std::vector<int>& rank_groups) {
    coupling::CouplingDatabase db;
    for (int p : rank_groups) add_group(&db, p);
    db.save_csv_file(path_.string());
  }

  std::filesystem::path path_;
};

TEST_F(SnapshotSourceTest, LoadPublishesVersionedSnapshot) {
  write_db({4});
  serve::SnapshotSource source(path_.string(), {}, {false});
  EXPECT_EQ(source.current(), nullptr);
  source.load();
  const auto snapshot = source.current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 1u);
  EXPECT_EQ(snapshot->database().size(), FakeWorkload::kLoop);
  EXPECT_EQ(source.reloads(), 1u);
}

TEST_F(SnapshotSourceTest, LoadThrowsOnMissingFileNamingPath) {
  serve::SnapshotSource source(path_.string(), {}, {false});
  try {
    source.load();
    FAIL() << "expected load() to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path_.string()),
              std::string::npos);
  }
}

TEST_F(SnapshotSourceTest, PollReloadsOnFileChangeOnly) {
  write_db({4});
  serve::SnapshotSource source(path_.string(), {}, {false});
  source.load();
  EXPECT_FALSE(source.poll());  // unchanged
  const auto before = source.current();

  write_db({4, 16});  // grew: size change guarantees the probe differs
  EXPECT_TRUE(source.poll());
  const auto after = source.current();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(after->version(), 2u);
  EXPECT_EQ(after->database().size(), 2 * FakeWorkload::kLoop);
  EXPECT_EQ(source.reloads(), 2u);
  // The displaced snapshot stays valid for readers still holding it.
  EXPECT_EQ(before->version(), 1u);
  EXPECT_EQ(before->database().size(), FakeWorkload::kLoop);
}

TEST_F(SnapshotSourceTest, PollSeesSameSizeRewriteWithinOneMtimeGranule) {
  const auto write_value = [&](double chain_time) {
    coupling::CouplingDatabase db;
    for (std::size_t start = 0; start < FakeWorkload::kLoop; ++start) {
      coupling::CouplingRecord r;
      r.key = {"APP", "X", 4, 2, start};
      r.chain_time = chain_time;
      r.isolated_sum = 1.0;
      db.record(r);
    }
    db.save_csv_file(path_.string());
  };
  write_value(1.5);
  serve::SnapshotSource source(path_.string(), {}, {false});
  source.load();
  const auto size_before = std::filesystem::file_size(path_);
  const auto mtime_before = std::filesystem::last_write_time(path_);

  write_value(2.5);
  // Same byte count by construction ("1.5" and "2.5" format identically) —
  // the old mtime+size probe had nothing else to look at.
  ASSERT_EQ(std::filesystem::file_size(path_), size_before);
  // Pin the mtime back to simulate a rewrite inside one timestamp granule
  // on a coarse-mtime filesystem.
  std::filesystem::last_write_time(path_, mtime_before);
  // save_csv_file writes a temp file and renames it into place, so the
  // rewrite landed on a fresh inode — the probe must still see the change.
  EXPECT_TRUE(source.poll());
  ASSERT_NE(source.current(), nullptr);
  EXPECT_EQ(source.current()->version(), 2u);
}

TEST_F(SnapshotSourceTest, BrokenReloadKeepsServingOldSnapshot) {
  write_db({4});
  serve::SnapshotSource source(path_.string(), {}, {false});
  source.load();
  const auto before = source.current();

  std::ofstream out(path_);
  out << "application,config,ranks,chain_length,chain_start,chain_time,"
         "isolated_sum\nBT,S,not_a_number,2,0,1.0,1.0,extra,breakage\n";
  out.close();
  EXPECT_FALSE(source.poll());
  EXPECT_EQ(source.reload_failures(), 1u);
  EXPECT_EQ(source.current(), before);
  // The bad probe is remembered: an unchanged broken file is not re-parsed.
  EXPECT_FALSE(source.poll());
  EXPECT_EQ(source.reload_failures(), 1u);

  write_db({4, 16});  // fixed file retriggers
  EXPECT_TRUE(source.poll());
  EXPECT_EQ(source.current()->version(), 2u);
}

TEST_F(SnapshotSourceTest, BackgroundPollerPicksUpChanges) {
  write_db({4});
  serve::SnapshotSource source(path_.string(), {}, {false});
  source.load();
  source.start_polling(std::chrono::milliseconds(10));
  write_db({4, 16});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (source.reloads() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  source.stop_polling();
  EXPECT_GE(source.reloads(), 2u);
  EXPECT_EQ(source.current()->database().size(), 2 * FakeWorkload::kLoop);
}

TEST_F(SnapshotSourceTest, ConcurrentReadersOfCurrentAndDriftDuringReloads) {
  // Readers take the published snapshot and drift report the way the
  // server does, once per window, while this thread polls reloads.  Every
  // pair they see is complete, and neither version ever goes back.
  write_db({4});
  serve::SnapshotSource source(path_.string(), {}, {false});
  source.load();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::uint64_t version = 0;
      std::uint64_t drift_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = source.current();
        const auto drift = source.last_drift();
        if (snapshot == nullptr || snapshot->version() < version ||
            snapshot->database().size() % FakeWorkload::kLoop != 0) {
          ++bad;
        } else {
          version = snapshot->version();
        }
        if (drift != nullptr) {
          if (drift->to_version < drift_version ||
              drift->from_version + 1 != drift->to_version) {
            ++bad;
          }
          drift_version = drift->to_version;
        }
        ++reads;
      }
    });
  }
  for (int round = 1; round <= 12; ++round) {
    if (round % 2 == 1) {
      write_db({4, 16});
    } else {
      write_db({4});
    }
    EXPECT_TRUE(source.poll()) << "round " << round;
  }
  while (reads.load() < 2) std::this_thread::yield();
  stop = true;
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(source.reloads(), 13u);
  ASSERT_NE(source.last_drift(), nullptr);
  EXPECT_EQ(source.last_drift()->to_version, source.current()->version());
}

// --- NPB bit-identity: served == in-process run_study -----------------------

TEST(ServeNpb, PredictionsBitIdenticalToRunStudy) {
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  const auto modeled = npb::bt::make_modeled_bt(npb::ProblemClass::kS, 4, cfg);
  coupling::StudyOptions options;
  options.chain_lengths = {2, 3};
  const coupling::StudyResult study =
      coupling::run_study(modeled->app(), options);

  // The database a campaign would persist for this cell.
  coupling::CouplingDatabase db;
  for (const auto& cl : study.by_length) {
    db.record("BT", "S", 4, cl.chains);
  }

  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload);
  const serve::PredictorSnapshot snapshot(db, 1, {}, {false});

  for (const auto& cl : study.by_length) {
    const auto p =
        engine.predict(snapshot, {"bt", "s", 4, cl.length});  // non-canonical
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.key.application, "BT");
    EXPECT_EQ(p.key.config, "S");
    EXPECT_EQ(p.alpha_source, "exact");
    // Exact double equality: the served path must reproduce the study.
    EXPECT_EQ(p.coupling_s, cl.prediction_s) << "q=" << cl.length;
    EXPECT_EQ(p.actual_s, study.actual_s);
    EXPECT_EQ(p.summation_s, study.summation_s);
    EXPECT_EQ(p.coupling_error, cl.relative_error);
    EXPECT_EQ(p.summation_error, study.summation_error);
  }
}

/// Golden pin: the cross-validated model selection on the seeded NPB suite
/// is deterministic, so the chosen form per application/kernel is part of
/// the observable contract.  A drift here means the selection algorithm,
/// the term registry, or the modeled workloads changed — all of which must
/// be deliberate.
TEST(ServeNpb, SelectedModelFormsArePinned) {
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload);

  // Seed one record per (app, S, P) so the snapshot's fit loop measures
  // those cells; the record values themselves never feed the fit.
  coupling::CouplingDatabase db;
  for (const char* app : {"BT", "SP", "LU"}) {
    for (int p : {1, 4, 16}) {
      db.record({{app, "S", p, 2, 0}, 1.0, 1.0});
    }
  }
  const serve::PredictorSnapshot snapshot(
      db, 1,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      {true});
  ASSERT_EQ(snapshot.fitted_application_count(), 3u);

  const auto forms = [&](const char* app) {
    const auto* fitted = snapshot.fitted_models_for(app);
    EXPECT_NE(fitted, nullptr);
    std::string joined;
    for (const model::PiecewiseModel& pw : *fitted) {
      if (!joined.empty()) joined += ';';
      joined += pw.term_names();
    }
    return joined;
  };
  EXPECT_EQ(forms("BT"), "P*log2(P)+1/P;1/P;n/P;n/P;1/P");
  EXPECT_EQ(forms("SP"), "P*log2(P)+1/P;1/P;1/P;1/sqrt(P);1/sqrt(P);n^2/P");
  EXPECT_EQ(forms("LU"), "P*log2(P)+1/P;log2(P)+1/sqrt(P);sqrt(P)+n^2/sqrt(P);1");
}

}  // namespace
}  // namespace kcoup

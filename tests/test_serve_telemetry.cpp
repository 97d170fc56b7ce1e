// End-to-end telemetry tests for the serve path: trace-context propagation
// (request ids echoed in responses and annotated on spans), the extended
// stats frame (rolling windows, source mix, drift), the Prometheus metrics
// op, the slow-request log, reload drift determinism, monotonic uptime, and
// byte-identity of predictions with telemetry on vs off.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/drift.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/slowlog.hpp"

#include "serve_format_env.hpp"

namespace kcoup {
namespace {

/// The same one-study fixture as test_serve_server.cpp: a BT class-S P=4
/// chain-2 study measured once per suite, persisted per test.
class TelemetryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new machine::MachineConfig(machine::ibm_sp_p2sc());
    const auto modeled =
        npb::bt::make_modeled_bt(npb::ProblemClass::kS, 4, *cfg_);
    coupling::StudyOptions options;
    options.chain_lengths = {2};
    study_ = new coupling::StudyResult(
        coupling::run_study(modeled->app(), options));
  }

  static void TearDownTestSuite() {
    delete study_;
    delete cfg_;
    study_ = nullptr;
    cfg_ = nullptr;
  }

  void SetUp() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("kcoup_telemetry_db_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".csv");
    write_db(false);
    workload_ = std::make_unique<serve::NpbWorkload>(*cfg_);
    engine_ = std::make_unique<serve::QueryEngine>(workload_.get());
    source_ = std::make_unique<serve::SnapshotSource>(
        path_.string(), serve::CellFn{}, serve::SnapshotOptions{false});
    source_->load();
  }

  void TearDown() override {
    server_.reset();
    source_.reset();
    std::filesystem::remove(path_);
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }

  [[nodiscard]] coupling::CouplingDatabase make_db(bool with_extra) const {
    coupling::CouplingDatabase db;
    for (const auto& cl : study_->by_length) {
      for (const coupling::ChainCoupling& chain : cl.chains) {
        coupling::CouplingRecord r;
        r.key = {"BT", "S", 4, chain.length, chain.start};
        r.chain_time = chain.chain_time;
        r.isolated_sum = chain.isolated_sum;
        db.record(r);
      }
    }
    if (with_extra) {
      // A record at a rank count the original database lacks: the drift
      // check treats it as "newly measured" and scores the old snapshot's
      // nearest-donor prediction against it.
      coupling::CouplingRecord r;
      r.key = {"BT", "S", 9, 2, 0};
      r.chain_time = 0.125;
      r.isolated_sum = 0.100;
      db.record(r);
    }
    return db;
  }

  void write_db(bool with_extra) {
    test::save_db_in_env_format(make_db(with_extra), path_.string());
  }

  void start_server(serve::ServerConfig config = {}) {
    server_ = std::make_unique<serve::Server>(source_.get(), engine_.get(),
                                              config);
    server_->start();
  }

  serve::Client connect() {
    serve::Client client;
    client.connect("127.0.0.1", server_->port());
    return client;
  }

  static machine::MachineConfig* cfg_;
  static coupling::StudyResult* study_;

  std::filesystem::path path_;
  std::unique_ptr<serve::NpbWorkload> workload_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<serve::SnapshotSource> source_;
  std::unique_ptr<serve::Server> server_;
};

machine::MachineConfig* TelemetryTest::cfg_ = nullptr;
coupling::StudyResult* TelemetryTest::study_ = nullptr;

// --- Protocol-level trace context -------------------------------------------

TEST(TraceContextProtocolTest, AttachSplicesBeforeClosingBrace) {
  EXPECT_EQ(serve::attach_trace_id("{\"ok\":true}", "t-1"),
            "{\"ok\":true,\"trace_id\":\"t-1\"}");
  // Empty id and non-JSON payloads pass through untouched.
  EXPECT_EQ(serve::attach_trace_id("{\"ok\":true}", ""), "{\"ok\":true}");
  EXPECT_EQ(serve::attach_trace_id("# TYPE x counter", "t-1"),
            "# TYPE x counter");
}

TEST(TraceContextProtocolTest, ParseTruncatesOversizedIds) {
  const std::string longid(3 * serve::kMaxTraceIdBytes, 'x');
  const auto request = serve::parse_request(serve::ping_request(longid));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->trace_id.size(), serve::kMaxTraceIdBytes);

  // 41 bytes whose 40-byte cut falls inside the last two-byte character:
  // the character goes whole, so the echoed id stays valid UTF-8.
  std::string accented = "a";
  for (int i = 0; i < 20; ++i) accented += "\xc3\xa9";
  const std::string kept = accented.substr(0, 39);
  const auto cut = serve::parse_request(serve::ping_request(accented));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->trace_id, kept);
  // The client cuts the ids it sends the same way; unconnected, the id is
  // cut before the send fails.
  serve::Client client;
  client.set_trace_id(accented);
  EXPECT_FALSE(client.ping());
  EXPECT_EQ(client.last_trace_id(), kept);
}

TEST(TraceContextProtocolTest, BuildersCarryTheId) {
  for (const std::string& payload :
       {serve::ping_request("id-1"), serve::stats_request("id-1"),
        serve::metrics_request("id-1"), serve::slowlog_request("id-1"),
        serve::predict_request({"BT", "S", 4, 2}, "id-1"),
        serve::batch_request({{"BT", "S", 4, 2}}, "id-1")}) {
    const auto request = serve::parse_request(payload);
    ASSERT_TRUE(request.has_value()) << payload;
    EXPECT_EQ(request->trace_id, "id-1") << payload;
  }
}

// --- Server-side propagation ------------------------------------------------

TEST_F(TelemetryTest, ResponsesEchoTheRequestTraceId) {
  start_server();
  serve::Client client = connect();
  for (const std::string& payload :
       {serve::ping_request("echo-7"), serve::stats_request("echo-7"),
        serve::slowlog_request("echo-7"),
        serve::predict_request({"BT", "S", 4, 2}, "echo-7")}) {
    const auto response = client.roundtrip(payload);
    ASSERT_TRUE(response.has_value()) << payload;
    EXPECT_NE(response->find("\"trace_id\":\"echo-7\""), std::string::npos)
        << *response;
  }
  // No id in, no id out.
  const auto bare = client.roundtrip(serve::ping_request());
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->find("trace_id"), std::string::npos);
}

TEST_F(TelemetryTest, ClientAndServerSpansShareTheTraceId) {
  // Client and server run in one process here, so both sides' spans land
  // in the same Tracer: the exported timeline must mention the id twice —
  // once from the client's "request" span, once from the server's.
  obs::Tracer::instance().enable();
  start_server();
  {
    serve::Client client = connect();
    client.set_trace_id("stitch-42");
    const auto p = client.predict({"BT", "S", 4, 2});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(client.last_trace_id(), "stitch-42");
  }
  server_.reset();  // join shard threads so their rings are quiescent
  obs::Tracer::instance().disable();
  std::ostringstream out;
  obs::Tracer::instance().write_chrome_trace(out);
  const std::string trace = out.str();
  std::size_t hits = 0;
  for (std::size_t at = trace.find("stitch-42"); at != std::string::npos;
       at = trace.find("stitch-42", at + 1)) {
    ++hits;
  }
  EXPECT_GE(hits, 2u) << trace;
}

TEST_F(TelemetryTest, AutoTraceIdsAreFreshPerRequest) {
  start_server();
  serve::Client client = connect();
  client.auto_trace_ids("t");
  ASSERT_TRUE(client.ping());
  const std::string first = client.last_trace_id();
  ASSERT_TRUE(client.ping());
  const std::string second = client.last_trace_id();
  EXPECT_EQ(first, "t-1");
  EXPECT_EQ(second, "t-2");
}

// --- Stats frame schema and windows -----------------------------------------

TEST_F(TelemetryTest, StatsFrameCarriesWindowsSourcesAndDrift) {
  start_server();
  serve::Client client = connect();
  ASSERT_TRUE(client.predict({"BT", "S", 4, 2}).has_value());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  // Flat cumulative fields stay where the pre-telemetry schema had them.
  for (const char* key :
       {"\"workers\":", "\"requests\":", "\"errors\":", "\"uptime_s\":",
        "\"latency_p99_s\":", "\"snapshot_version\":"}) {
    EXPECT_NE(stats->find(key), std::string::npos) << key << " in " << *stats;
  }
  // The nested telemetry sections, with their full per-window schema.
  EXPECT_NE(stats->find("\"windows\":{\"1s\":{"), std::string::npos);
  EXPECT_NE(stats->find("\"10s\":{"), std::string::npos);
  EXPECT_NE(stats->find("\"60s\":{"), std::string::npos);
  for (const char* key : {"\"rps\":", "\"error_rate\":", "\"p50_s\":",
                          "\"p95_s\":", "\"p99_s\":"}) {
    EXPECT_NE(stats->find(key), std::string::npos) << key;
  }
  EXPECT_NE(stats->find("\"sources\":{\"snapshot_version\":"),
            std::string::npos);
  EXPECT_NE(stats->find("\"exact\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"drift\":null"), std::string::npos);
}

TEST_F(TelemetryTest, StatsUnderConcurrentPipelinedLoadStaysConsistent) {
  serve::ServerConfig config;
  config.workers = 2;
  config.max_inflight = 16;
  start_server(config);
  {
    serve::Client warm = connect();
    ASSERT_TRUE(warm.predict({"BT", "S", 4, 2}).has_value());
  }
  constexpr int kClients = 4;
  constexpr int kBurst = 8;
  constexpr int kRounds = 10;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> last_requests{0};
  std::atomic<int> monotone_violations{0};
  // A stats poller races the load: the cumulative counter must be monotone
  // across reads even while every shard is recording.
  std::thread poller([this, &stop, &last_requests, &monotone_violations] {
    serve::Client client = connect();
    while (!stop.load(std::memory_order_acquire)) {
      const auto m = server_->metrics();
      const std::uint64_t prev = last_requests.load();
      if (m.requests < prev) monotone_violations.fetch_add(1);
      last_requests.store(m.requests);
      if (!client.ping()) break;
    }
  });
  std::vector<std::thread> load;
  for (int c = 0; c < kClients; ++c) {
    load.emplace_back([this] {
      serve::Client client = connect();
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBurst; ++i) {
          ASSERT_TRUE(client.send_request(
              serve::predict_request({"BT", "S", 4, 2})));
        }
        for (int i = 0; i < kBurst; ++i) {
          const auto response = client.read_response();
          ASSERT_TRUE(response.has_value());
          EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
        }
      }
    });
  }
  for (std::thread& t : load) t.join();
  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_EQ(monotone_violations.load(), 0);

  // Settled state: the 60 s window has seen every request the cumulative
  // counters have (the suite runs in far under 60 s), so a window merge
  // that dropped or double-counted a shard's slots would show here.
  serve::Client client = connect();
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  const auto window_at = stats->find("\"60s\":{\"requests\":");
  ASSERT_NE(window_at, std::string::npos);
  const std::uint64_t windowed = std::stoull(
      stats->substr(window_at + std::string("\"60s\":{\"requests\":").size()));
  const auto total_at = stats->find("\"requests\":");
  ASSERT_NE(total_at, std::string::npos);
  const std::uint64_t total =
      std::stoull(stats->substr(total_at + std::string("\"requests\":").size()));
  EXPECT_EQ(windowed, total);
  EXPECT_GE(total,
            static_cast<std::uint64_t>(kClients) * kBurst * kRounds);
}

// --- Prometheus metrics op --------------------------------------------------

TEST_F(TelemetryTest, MetricsOpRendersPrometheusExposition) {
  start_server();
  serve::Client client = connect();
  ASSERT_TRUE(client.predict({"BT", "S", 4, 2}).has_value());
  const auto exposition = client.metrics();
  ASSERT_TRUE(exposition.has_value());
  EXPECT_EQ(exposition->rfind("# TYPE ", 0), 0u) << *exposition;
  for (const char* needle :
       {"# TYPE serve_requests counter\n", "serve_requests 1\n",
        "# TYPE serve_source_exact counter\nserve_source_exact 1\n",
        "# TYPE serve_request_seconds histogram\n",
        "serve_request_seconds_bucket{le=\"+Inf\"} 1\n",
        "serve_request_seconds_count 1\n",
        "# TYPE serve_uptime_seconds gauge\n",
        "# TYPE obs_trace_dropped_spans gauge\n"}) {
    EXPECT_NE(exposition->find(needle), std::string::npos) << needle;
  }
  // The metrics payload is raw text: no trace_id echo even when asked.
  const auto traced = client.roundtrip(serve::metrics_request("nope"));
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->find("trace_id"), std::string::npos);
}

// --- Slow-request log -------------------------------------------------------

TEST(SlowLogUnitTest, KeepsTheKSlowestAndAllRecentFailures) {
  serve::SlowLog log(2, 2);
  for (int i = 1; i <= 5; ++i) {
    serve::SlowLog::Entry e;
    e.latency_s = 0.001 * i;
    e.ok = true;
    e.op = "predict";
    log.record(std::move(e));
  }
  for (int i = 0; i < 3; ++i) {
    serve::SlowLog::Entry e;
    e.latency_s = 0.5;
    e.ok = false;
    e.op = "predict";
    log.record(std::move(e));
  }
  const std::string json = log.to_json();
  // Slow set: only the two slowest ok entries survive.
  EXPECT_NE(json.find("\"latency_s\":0.005"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_s\":0.004"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"latency_s\":0.003"), std::string::npos) << json;
  // Failed ring: capacity 2, but the total count remembers all 3.
  EXPECT_NE(json.find("\"failed_total\":3"), std::string::npos) << json;
  // Below-floor fast path: a fast ok entry is rejected without admission.
  EXPECT_FALSE(log.would_admit(true, 0.0001));
  EXPECT_TRUE(log.would_admit(false, 0.0001));  // failures always admitted
}

TEST_F(TelemetryTest, SlowlogOpRecordsFailuresWithTraceContext) {
  start_server();
  serve::Client client = connect();
  // An invalid chain length fails the prediction — that request must land
  // in the failed ring with its op, trace id and truncated payload.
  const auto bad =
      client.roundtrip(serve::predict_request({"BT", "S", 4, 99}, "sl-1"));
  ASSERT_TRUE(bad.has_value());
  const auto good = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(good.has_value());
  const auto slowlog = client.slowlog();
  ASSERT_TRUE(slowlog.has_value());
  EXPECT_NE(slowlog->find("\"ok\":true,\"failed_total\":1"),
            std::string::npos)
      << *slowlog;
  EXPECT_NE(slowlog->find("\"op\":\"predict\""), std::string::npos);
  EXPECT_NE(slowlog->find("\"trace_id\":\"sl-1\""), std::string::npos);
  EXPECT_NE(slowlog->find("\"request\":\"{"), std::string::npos);
}

// --- Prediction-quality telemetry -------------------------------------------

TEST_F(TelemetryTest, DriftReportIsDeterministicForAFixedSnapshotPair) {
  const auto outgoing = source_->current();
  ASSERT_NE(outgoing, nullptr);
  const coupling::CouplingDatabase incoming = make_db(true);
  const serve::DriftReport a = serve::compute_drift(*outgoing, incoming, 2);
  const serve::DriftReport b = serve::compute_drift(*outgoing, incoming, 2);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.new_records, 1u);
  EXPECT_EQ(a.compared, 1u);
  EXPECT_GT(a.max, 0.0);
  EXPECT_EQ(a.p50, a.max);  // one sample: every quantile is that sample
}

TEST_F(TelemetryTest, ReloadPublishesTheSameDriftTheDirectComputationGives) {
  start_server();
  const auto outgoing = source_->current();
  ASSERT_NE(outgoing, nullptr);
  const serve::DriftReport expected =
      serve::compute_drift(*outgoing, make_db(true), 2);
  ASSERT_EQ(source_->last_drift(), nullptr);  // no reload yet
  write_db(true);
  ASSERT_TRUE(source_->poll());
  const auto published = source_->last_drift();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->to_json(), expected.to_json());
  // The stats frame now carries it instead of null.
  serve::Client client = connect();
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"drift\":{\"from\":1,\"to\":2,\"new_records\":1"),
            std::string::npos)
      << *stats;
}

TEST_F(TelemetryTest, PredictionsAreByteIdenticalWithTelemetryOnAndOff) {
  start_server();
  serve::Client client = connect();
  const std::string payload = serve::predict_request({"BT", "S", 4, 2});
  ASSERT_TRUE(client.roundtrip(payload).has_value());  // warm the cell memo
  const auto untraced = client.roundtrip(payload);
  ASSERT_TRUE(untraced.has_value());
  obs::Tracer::instance().enable();
  const auto traced = client.roundtrip(payload);
  obs::Tracer::instance().disable();
  ASSERT_TRUE(traced.has_value());
  // Telemetry observes the request path; it must never perturb the answer.
  EXPECT_EQ(*untraced, *traced);
}

TEST_F(TelemetryTest, UptimeIsMonotonicAndTracksSteadyElapsed) {
  start_server();
  const auto steady_before = std::chrono::steady_clock::now();
  const double uptime_a = server_->metrics().uptime_s;
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const double uptime_b = server_->metrics().uptime_s;
  const double steady_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    steady_before)
          .count();
  EXPECT_GE(uptime_b, uptime_a + 0.1);  // advanced with steady time
  // Pinned to the monotonic clock: the delta can never exceed the steady
  // elapsed bracket around it (a wall-clock source could, under NTP).
  EXPECT_LE(uptime_b - uptime_a, steady_elapsed + 1e-9);
}

}  // namespace
}  // namespace kcoup
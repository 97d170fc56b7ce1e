// Loopback tests for the TCP prediction server: wire round trips, batch
// queries, N concurrent clients, malformed/oversized-frame rejection,
// overload fast-reject, graceful drain, live hot-reload, and the stats op.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "serve/pack.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

#include "serve_format_env.hpp"

namespace kcoup {
namespace {

/// One BT class-S P=4 study (chains of 2) shared by every test in the
/// suite: measuring it once keeps the whole file fast, and its prediction
/// is the bit-identity reference for everything served.
class ServerTest : public ::testing::Test {
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
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("kcoup_server_db_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".csv");
    write_db(1.0);
    workload_ = std::make_unique<serve::NpbWorkload>(*cfg_);
    engine_ = std::make_unique<serve::QueryEngine>(workload_.get());
    source_ = std::make_unique<serve::SnapshotSource>(
        path_.string(), serve::CellFn{}, serve::SnapshotOptions{false});
    source_->load();
  }

  void TearDown() override {
    server_.reset();  // stop before the source/engine it points at
    source_.reset();
    std::filesystem::remove(path_);
  }

  /// Persist the study's chains with chain_time scaled by `scale` — scale 1
  /// is the real measurement; any other value simulates a refreshed
  /// database with different content for hot-reload tests.
  void write_db(double scale) {
    coupling::CouplingDatabase db;
    for (const auto& cl : study_->by_length) {
      for (coupling::ChainCoupling chain : cl.chains) {
        chain.chain_time *= scale;
        coupling::CouplingRecord r;
        r.key = {"BT", "S", 4, chain.length, chain.start};
        r.chain_time = chain.chain_time;
        r.isolated_sum = chain.isolated_sum;
        db.record(r);
      }
    }
    test::save_db_in_env_format(std::move(db), path_.string());
  }

  /// Rewrite the database at `path_` in an explicit format, regardless of
  /// KCOUP_SNAPSHOT_FORMAT — the cross-format hot-reload test swaps
  /// formats live under the same path.
  void write_db_as(double scale, bool packed) {
    coupling::CouplingDatabase db;
    for (const auto& cl : study_->by_length) {
      for (coupling::ChainCoupling chain : cl.chains) {
        chain.chain_time *= scale;
        coupling::CouplingRecord r;
        r.key = {"BT", "S", 4, chain.length, chain.start};
        r.chain_time = chain.chain_time;
        r.isolated_sum = chain.isolated_sum;
        db.record(r);
      }
    }
    if (packed) {
      serve::pack_snapshot_file(
          serve::PredictorSnapshot(std::move(db), 0, serve::CellFn{},
                                   serve::SnapshotOptions{false}),
          path_.string());
    } else {
      db.save_csv_file(path_.string());
    }
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

machine::MachineConfig* ServerTest::cfg_ = nullptr;
coupling::StudyResult* ServerTest::study_ = nullptr;

TEST_F(ServerTest, BindsEphemeralPortAndAnswersPing) {
  start_server();
  EXPECT_GT(server_->port(), 0);
  EXPECT_TRUE(server_->running());
  serve::Client client = connect();
  EXPECT_TRUE(client.ping());
}

TEST_F(ServerTest, PortsOutsideTheTcpRangeAreRefusedNotWrapped) {
  // 70000 used to bind 70000 mod 65536 = 4464, and -1 bound 65535.
  for (const int port : {70000, 65536, -1}) {
    serve::ServerConfig config;
    config.port = port;
    EXPECT_THROW(start_server(config), serve::BindError) << port;
    EXPECT_FALSE(server_->running()) << port;
  }
}

TEST_F(ServerTest, ClientRefusesAPortOutsideTheTcpRange) {
  start_server();
  // This server's port + 65536 used to wrap onto it and connect.
  serve::Client client;
  EXPECT_THROW(client.connect("127.0.0.1", server_->port() + 65536),
               std::runtime_error);
  EXPECT_FALSE(client.connected());
  client.connect("127.0.0.1", server_->port());
  EXPECT_TRUE(client.ping());
}

TEST_F(ServerTest, ServedPredictionIsBitIdenticalToRunStudy) {
  start_server();
  serve::Client client = connect();
  const auto p = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->ok) << p->error;
  // 17-significant-digit framing: the value that crossed the socket equals
  // the in-process study bit for bit.
  EXPECT_EQ(p->coupling_s, study_->by_length[0].prediction_s);
  EXPECT_EQ(p->actual_s, study_->actual_s);
  EXPECT_EQ(p->summation_s, study_->summation_s);
  EXPECT_EQ(p->alpha_source, "exact");
  EXPECT_EQ(p->inputs_source, "measured");
  EXPECT_EQ(p->snapshot_version, 1u);
}

TEST_F(ServerTest, BatchReturnsResultsInOrder) {
  start_server();
  serve::Client client = connect();
  const std::vector<serve::QueryKey> queries{
      {"BT", "S", 4, 2}, {"bt", "s", 4, 2}, {"BT", "S", 4, 99}};
  const auto results = client.predict_batch(queries);
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].ok);
  EXPECT_TRUE((*results)[1].ok);  // canonicalized spelling
  EXPECT_EQ((*results)[1].key.application, "BT");
  EXPECT_EQ((*results)[0].coupling_s, (*results)[1].coupling_s);
  EXPECT_FALSE((*results)[2].ok);  // chain 99 > loop size
}

TEST_F(ServerTest, ManyConcurrentClientsAllGetIdenticalBits) {
  serve::ServerConfig config;
  config.workers = 4;
  config.max_inflight = 64;
  start_server(config);
  // Warm the cell memo so concurrent requests are pure cache reads.
  {
    serve::Client warm = connect();
    ASSERT_TRUE(warm.predict({"BT", "S", 4, 2}).has_value());
  }
  const double expected = study_->by_length[0].prediction_s;
  constexpr int kClients = 8;
  constexpr int kRequests = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, expected, &mismatches, &failures] {
      serve::Client client = connect();
      for (int i = 0; i < kRequests; ++i) {
        const auto p = client.predict({"BT", "S", 4, 2});
        if (!p.has_value() || !p->ok) {
          failures.fetch_add(1);
        } else if (p->coupling_s != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server_->requests_handled(),
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST_F(ServerTest, RankCountAboveTheLargestSquareIsAnsweredNotSpun) {
  // The BT square check overflowed int above 46340^2 and spun the shard,
  // so a one-shard server never answered again.
  serve::ServerConfig config;
  config.workers = 1;
  start_server(config);
  auto answer =
      std::make_shared<std::promise<std::optional<serve::Prediction>>>();
  std::future<std::optional<serve::Prediction>> answered = answer->get_future();
  std::thread asker([answer, port = server_->port()] {
    serve::Client client;
    client.connect("127.0.0.1", port);
    answer->set_value(
        client.predict({"BT", "S", std::numeric_limits<int>::max(), 2}));
  });
  if (answered.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // The shard is stuck, so neither it nor the asker blocked on it can be
    // joined: leak the fixture and detach the asker, which owns all it
    // touches (the promise and its client).
    asker.detach();
    (void)server_.release();
    (void)source_.release();
    (void)engine_.release();
    (void)workload_.release();
    FAIL() << "no answer for P = INT_MAX within 30 s";
  }
  asker.join();
  const std::optional<serve::Prediction> p = answered.get();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->ok);  // not a square: refused, not measured

  serve::Client client = connect();
  const auto after = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(after->ok) << after->error;
  EXPECT_EQ(after->coupling_s, study_->by_length[0].prediction_s);
}

TEST_F(ServerTest, MalformedFramePrefixIsRejected) {
  start_server();
  serve::Client client = connect();
  const auto response = client.roundtrip_raw("banana\n");
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":400"), std::string::npos);
  // The server closed the connection after the error frame.
  EXPECT_FALSE(client.roundtrip(serve::ping_request()).has_value());
  EXPECT_EQ(server_->metrics().malformed_frames, 1u);
}

TEST_F(ServerTest, MalformedJsonPayloadGetsErrorButKeepsConnection) {
  start_server();
  serve::Client client = connect();
  const auto response = client.roundtrip("{\"op\":\"nonsense\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":400"), std::string::npos);
  EXPECT_TRUE(client.ping());  // same connection still serves
}

TEST_F(ServerTest, OversizedFrameIsRejected) {
  serve::ServerConfig config;
  config.max_frame_bytes = 128;
  start_server(config);
  serve::Client client = connect();
  const std::string big(4096, 'x');
  const auto response = client.roundtrip(big);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":413"), std::string::npos);
  EXPECT_EQ(server_->metrics().oversized_frames, 1u);
}

TEST_F(ServerTest, OverloadFastRejectsWithoutQueueing) {
  serve::ServerConfig config;
  config.workers = 1;
  config.max_inflight = 1;
  start_server(config);
  // First client occupies the only in-flight slot (connections count
  // against the limit for as long as they stay open).
  serve::Client first = connect();
  ASSERT_TRUE(first.ping());  // guarantees it was accepted and dispatched
  // Second client must get an overload frame immediately — the worker is
  // irrelevant; the accept loop answers.
  serve::Client second = connect();
  const auto response = second.roundtrip(serve::ping_request());
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":429"), std::string::npos);
  EXPECT_EQ(server_->metrics().rejected_overload, 1u);
  // Once the first client leaves, capacity frees up.
  first.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool accepted = false;
  while (!accepted && std::chrono::steady_clock::now() < deadline) {
    serve::Client retry = connect();
    accepted = retry.ping();
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(accepted);
}

/// A ping over a raw socket: one framed request out, one framed response
/// in, true when the server answered ok.
bool raw_ping(int fd) {
  const std::string frame = serve::encode_frame(serve::ping_request());
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    return false;
  }
  std::string received;
  std::string payload;
  std::size_t pos = 0;
  while (serve::decode_frame(received, &pos, 1 << 16, &payload) ==
         serve::FrameDecodeStatus::kNeedMore) {
    char chunk[512];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  const auto response = support::json::Object::parse(payload);
  return response.has_value() && response->raw("ok") == "true";
}

TEST_F(ServerTest, AcceptLoopSurvivesDescriptorExhaustion) {
  serve::ServerConfig config;
  config.workers = 1;
  start_server(config);
  const obs::Counter& accept_errors =
      server_->registry().counter("serve.accept_errors");

  // Closes the queued socket and the spare descriptors and restores the
  // limit on every exit path.
  struct Exhaustion {
    rlimit saved{};
    int queued = -1;
    std::vector<int> spares;
    void free_spares() {
      for (const int fd : spares) ::close(fd);
      spares.clear();
    }
    ~Exhaustion() {
      if (queued >= 0) ::close(queued);
      free_spares();
      ::setrlimit(RLIMIT_NOFILE, &saved);
    }
  } exhaustion;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &exhaustion.saved), 0);
  // The first time UBSan's vptr check meets a type it probes the memory
  // through a pipe, which fails while descriptors are exhausted and reads
  // as "invalid vptr".  Taking a snapshot here meets the snapshot's
  // control block first, so a lone run under UBSan passes too.
  ASSERT_NE(source_->current(), nullptr);
  // The queued connection's socket exists before the limit drops.  Linux
  // accept(2) takes its descriptor number before it blocks, so whether the
  // acceptor is already waiting in accept() or enters it later, the limit
  // below leaves no free number it could take from this socket.
  exhaustion.queued = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(exhaustion.queued, 0);
  for (int i = 0; i < 4; ++i) {
    const int fd = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(fd, 0);
    exhaustion.spares.push_back(fd);
  }
  // Every descriptor below the lowest free one is taken (or reserved by a
  // waiting accept), so this limit leaves none free.
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = exhaustion.saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // The connection queues; the server's accept() gets EMFILE, at the
  // latest on the call after the one that was already waiting.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(exhaustion.queued,
                      reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (accept_errors.value() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(accept_errors.value(), 0u);

  // With descriptors free again, the accept loop takes the queued
  // connection and new ones, still under the lowered limit.
  exhaustion.free_spares();
  EXPECT_TRUE(raw_ping(exhaustion.queued));
  serve::Client fresh = connect();
  EXPECT_TRUE(fresh.ping());
  EXPECT_EQ(server_->metrics().connections, 2u);
}

TEST_F(ServerTest, GracefulStopAnswersInFlightRequests) {
  start_server();
  serve::Client client = connect();
  std::optional<serve::Prediction> result;
  std::thread requester([&client, &result] {
    // An uncached cell: the engine measures it while stop() runs.
    result = client.predict({"BT", "S", 9, 2});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->stop();  // must drain, not drop
  requester.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_TRUE(std::isfinite(result->coupling_s));
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, StopIsIdempotentAndRestartable) {
  start_server();
  server_->stop();
  server_->stop();
  server_->start();  // a stopped server can come back
  serve::Client client = connect();
  EXPECT_TRUE(client.ping());
}

TEST_F(ServerTest, HotReloadServesNewValuesWithoutRestart) {
  start_server();
  serve::Client client = connect();
  const auto before = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(before->ok);
  EXPECT_EQ(before->snapshot_version, 1u);
  EXPECT_EQ(before->coupling_s, study_->by_length[0].prediction_s);

  write_db(2.0);  // doubled chain times -> different couplings
  ASSERT_TRUE(source_->poll());

  const auto after = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(after->ok) << after->error;
  EXPECT_EQ(after->snapshot_version, 2u);
  EXPECT_NE(after->coupling_s, before->coupling_s);
  // Cell inputs are snapshot-independent: still served from the memo.
  EXPECT_TRUE(after->cache_hit);
  EXPECT_EQ(after->actual_s, before->actual_s);
  EXPECT_EQ(server_->metrics().snapshot_version, 2u);
}

/// The snapshot source sniffs the format per reload, so an operator can
/// swap a live server between CSV and packed snapshots under the same
/// path — the served values must be bit-identical across the swap, and a
/// corrupt packed file must leave the old snapshot serving.
TEST_F(ServerTest, HotReloadSwapsBetweenCsvAndPackedFormats) {
  start_server();
  serve::Client client = connect();
  const auto baseline = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(baseline->ok);
  EXPECT_EQ(baseline->snapshot_version, 1u);

  // CSV -> packed, with new content (doubled chain times).
  write_db_as(2.0, /*packed=*/true);
  ASSERT_TRUE(source_->poll());
  const auto packed = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(packed.has_value());
  ASSERT_TRUE(packed->ok) << packed->error;
  EXPECT_EQ(packed->snapshot_version, 2u);
  EXPECT_NE(packed->coupling_s, baseline->coupling_s);

  // packed -> CSV with the same content: a format change only.  The served
  // prediction must not move by a single bit.
  write_db_as(2.0, /*packed=*/false);
  ASSERT_TRUE(source_->poll());
  const auto csv = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(csv.has_value());
  ASSERT_TRUE(csv->ok) << csv->error;
  EXPECT_EQ(csv->snapshot_version, 3u);
  EXPECT_EQ(csv->coupling_s, packed->coupling_s);
  EXPECT_EQ(csv->summation_s, packed->summation_s);
  EXPECT_EQ(csv->actual_s, packed->actual_s);

  // A corrupt packed file (valid magic, truncated body) must fail the
  // reload and keep the CSV snapshot serving.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "KCOUPKCS garbage";
  }
  EXPECT_FALSE(source_->poll());
  EXPECT_GE(source_->reload_failures(), 1u);
  const auto still = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(still.has_value());
  ASSERT_TRUE(still->ok) << still->error;
  EXPECT_EQ(still->snapshot_version, 3u);
  EXPECT_EQ(still->coupling_s, csv->coupling_s);

  // A fixed packed file retriggers the reload.
  write_db_as(3.0, /*packed=*/true);
  ASSERT_TRUE(source_->poll());
  const auto fixed = client.predict({"BT", "S", 4, 2});
  ASSERT_TRUE(fixed.has_value());
  ASSERT_TRUE(fixed->ok) << fixed->error;
  EXPECT_EQ(fixed->snapshot_version, 4u);
  EXPECT_NE(fixed->coupling_s, csv->coupling_s);
}

TEST_F(ServerTest, StatsOpReportsCountersAndLatency) {
  start_server();
  serve::Client client = connect();
  ASSERT_TRUE(client.predict({"BT", "S", 4, 2}).has_value());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  const auto frame = support::json::Object::parse(*stats);
  ASSERT_TRUE(frame.has_value()) << *stats;
  const auto requests = frame->number("requests");
  ASSERT_TRUE(requests.has_value());
  EXPECT_GE(*requests, 1.0);
  const auto p99 = frame->number("latency_p99_s");
  ASSERT_TRUE(p99.has_value());
  EXPECT_GT(*p99, 0.0);
  // The wire response carries the introspection fields `kcoup stats` renders:
  // uptime and the snapshot reload/generation counters.
  const auto uptime = frame->number("uptime_s");
  ASSERT_TRUE(uptime.has_value());
  EXPECT_GT(*uptime, 0.0);
  EXPECT_TRUE(frame->number("snapshot_reloads"));
  EXPECT_TRUE(frame->number("snapshot_reload_failures"));
  EXPECT_TRUE(frame->number("snapshot_version"));

  const serve::ServeMetrics metrics = server_->metrics();
  EXPECT_GE(metrics.requests, 2u);
  EXPECT_EQ(metrics.predictions, 1u);
  EXPECT_EQ(metrics.db_records, study_->by_length[0].chains.size());
  EXPECT_GT(metrics.latency_p50_s, 0.0);
  EXPECT_GE(metrics.latency_max_s, metrics.latency_p50_s);
  // Reporters agree with each other on the counters they share.
  const std::string jsonl = metrics.to_jsonl();
  EXPECT_NE(jsonl.find("\"predictions\":1"), std::string::npos);
  EXPECT_NE(metrics.to_csv().find("latency_p99_s"), std::string::npos);
  EXPECT_GT(metrics.uptime_s, 0.0);
  EXPECT_NE(metrics.to_csv().find("uptime_s"), std::string::npos);
  EXPECT_NE(metrics.to_table().to_string().find("uptime"), std::string::npos);
}

}  // namespace
}  // namespace kcoup

// Wire-level tests for the event-driven serve path: the hardened frame
// decoder (length overflow, incremental feeding), the best-effort
// non-blocking reject send, the client's buffered frame reader against a
// scripted peer, JSON escaping of control characters, the string- and
// depth-aware JSON reader with its truncation and bit-flip sweep, request
// pipelining order, mid-pipeline framing errors, the poll(2) fallback
// backend, a throwing prediction, integer boundary values that must not
// stop a shard, the client's transmit buffer, and a golden of served
// response bytes (tests/data/served_frames.txt; KCOUP_REGEN_GOLDEN=1
// rewrites it).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "coupling/analysis.hpp"
#include "coupling/database.hpp"
#include "machine/config.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "serve/poller.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/json.hpp"

#include "serve_format_env.hpp"

namespace kcoup {
namespace {

// --- Frame decoder ----------------------------------------------------------

serve::FrameDecodeStatus decode(const std::string& buf, std::size_t* pos,
                                std::string* payload,
                                std::size_t max_payload = 1024) {
  return serve::decode_frame(buf, pos, max_payload, payload);
}

TEST(FramingTest, DecodesFramesIncrementally) {
  std::string buf;
  std::size_t pos = 0;
  std::string payload;

  EXPECT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kNeedMore);
  buf += "13";
  EXPECT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kNeedMore);
  buf += "\n{\"op\":\"pi";
  EXPECT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kNeedMore);
  EXPECT_EQ(pos, 0u);  // nothing consumed until a whole frame is there
  buf += "ng\"}";
  ASSERT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
  EXPECT_EQ(pos, buf.size());

  // Two complete frames plus a partial third, back to back.
  buf += "2\nab0\n5\nhel";
  ASSERT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, "ab");
  ASSERT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, "");  // zero-length payload is a valid frame
  EXPECT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kNeedMore);
  buf += "lo";
  ASSERT_EQ(decode(buf, &pos, &payload), serve::FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, "hello");
}

TEST(FramingTest, OverflowingLengthIsMalformedNotWrapped) {
  std::size_t pos = 0;
  std::string payload;
  // 20 nines = 10^20 - 1: wraps std::uint64_t if accumulated naively.  The
  // unhardened parser computed a small garbage length, passed the
  // max_bytes check, and desynchronized the stream.
  EXPECT_EQ(decode("99999999999999999999\nx", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
  pos = 0;
  // Exactly 2^64: still 20 digits, still wraps.
  EXPECT_EQ(decode("18446744073709551616\nx", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
  pos = 0;
  // 2^64 - 1 does fit in 20 digits: it must parse as a number and then be
  // rejected as oversized, not malformed.
  EXPECT_EQ(decode("18446744073709551615\nx", &pos, &payload),
            serve::FrameDecodeStatus::kOversized);
  pos = 0;
  // 21 digits can never be a sane length.
  EXPECT_EQ(decode("100000000000000000000\nx", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
}

TEST(FramingTest, RejectsEmptyAndNonDigitLengths) {
  std::size_t pos = 0;
  std::string payload;
  EXPECT_EQ(decode("\n", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
  pos = 0;
  EXPECT_EQ(decode("12a\n", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
  pos = 0;
  EXPECT_EQ(decode("banana\n", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
  pos = 0;
  EXPECT_EQ(decode("-1\n", &pos, &payload),
            serve::FrameDecodeStatus::kMalformed);
}

TEST(FramingTest, OversizedLengthReportsBeforePayloadArrives) {
  std::size_t pos = 0;
  std::string payload;
  // The length alone is enough to reject: no need to wait for 4096 bytes.
  EXPECT_EQ(serve::decode_frame("4096\n", &pos, 128, &payload),
            serve::FrameDecodeStatus::kOversized);
}

TEST(FramingTest, MultiDigitLengthsDecodeToTheirValue) {
  std::size_t pos = 0;
  std::string payload;
  const std::string body(1234, 'b');
  ASSERT_EQ(decode("1234\n" + body, &pos, &payload, 4096),
            serve::FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, body);
  pos = 0;
  EXPECT_EQ(decode("1234x\n", &pos, &payload, 4096),
            serve::FrameDecodeStatus::kMalformed);
  // std::size_t's maximum itself is a length, not a wrap: with no cap below
  // it the frame just waits for its payload.
  pos = 0;
  EXPECT_EQ(serve::decode_frame("18446744073709551615\nx", &pos,
                                std::numeric_limits<std::size_t>::max(),
                                &payload),
            serve::FrameDecodeStatus::kNeedMore);
}

// --- Best-effort reject send ------------------------------------------------

TEST(SendFrameBestEffortTest, DeliversFrameToAReadingPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = serve::error_json("overloaded", 429);
  EXPECT_TRUE(serve::send_frame_best_effort(fds[0], payload));
  const std::string expect = serve::encode_frame(payload);
  std::string got(expect.size(), '\0');
  ASSERT_EQ(::recv(fds[1], got.data(), got.size(), 0),
            static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, expect);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SendFrameBestEffortTest, GivesUpInsteadOfBlockingOnAFullBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  // Fill the send buffer without ever blocking ourselves.
  const std::string junk(4096, 'x');
  for (;;) {
    const ssize_t n =
        ::send(fds[0], junk.data(), junk.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ASSERT_GE(n, 0);
  }
  // A blocking send here would hang forever — the peer never reads.  The
  // best-effort variant must return promptly and report failure.
  EXPECT_FALSE(
      serve::send_frame_best_effort(fds[0], std::string(8192, 'y')));
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Client frame reader ----------------------------------------------------

/// A one-shot loopback peer: accepts one connection and writes `chunks` to
/// it, one send(2) each with a short pause between so the client sees them
/// as separate segments.  It then half-closes, so the client reads EOF
/// after the last chunk, and drains until the client hangs up: closing with
/// the client's request unread would reset the connection instead.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<std::string> chunks) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, chunks = std::move(chunks)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // the test ended without connecting
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Bounds the drain below if a test keeps its client open.
      const timeval timeout{10, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      for (const std::string& chunk : chunks) {
        std::size_t sent = 0;
        while (sent < chunk.size()) {
          const ssize_t n = ::send(fd, chunk.data() + sent,
                                   chunk.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) break;
          sent += static_cast<std::size_t>(n);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      ::shutdown(fd, SHUT_WR);
      char sink[256];
      while (::recv(fd, sink, sizeof(sink), 0) > 0) {
      }
      ::close(fd);
    });
  }

  ~ScriptedPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept() if nobody came
    thread_.join();
    ::close(listen_fd_);
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  [[nodiscard]] int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

serve::Client connect_to(const ScriptedPeer& peer) {
  serve::Client client;
  client.connect("127.0.0.1", peer.port());
  return client;
}

serve::Prediction reader_prediction() {
  serve::Prediction p;
  p.ok = true;
  p.key = {"APP", "X", 4, 2};
  p.coupling_s = 0.26123873079507093;
  p.summation_s = 0.27503180720945508;
  p.alpha_source = "exact";
  p.source = "exact";
  p.snapshot_version = 3;
  return p;
}

TEST(ClientReaderTest, ResponseSentOneBytePerSendIsReassembled) {
  const serve::Prediction want = reader_prediction();
  std::vector<std::string> bytes;
  for (char c : serve::encode_frame(serve::prediction_json(want))) {
    bytes.emplace_back(1, c);
  }
  const ScriptedPeer peer(std::move(bytes));
  serve::Client client = connect_to(peer);
  const auto got = client.predict(want.key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(serve::prediction_json(*got), serve::prediction_json(want));
}

TEST(ClientReaderTest, PipelinedResponsesInOneSendArriveInOrder) {
  const ScriptedPeer peer({"5\nfirst6\nsecond5\nthird"});
  serve::Client client = connect_to(peer);
  EXPECT_EQ(client.read_response(), "first");
  // A move carries the bytes already buffered.
  serve::Client moved = std::move(client);
  EXPECT_EQ(moved.read_response(), "second");
  serve::Client assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.read_response(), "third");
  EXPECT_FALSE(assigned.read_response().has_value());  // then EOF
}

TEST(ClientReaderTest, EofInsideLengthOrPayloadIsNullopt) {
  {
    const ScriptedPeer peer({"1", "2"});
    serve::Client client = connect_to(peer);
    EXPECT_FALSE(client.read_response().has_value());
  }
  {
    const ScriptedPeer peer({"12\nabc", "def"});
    serve::Client client = connect_to(peer);
    EXPECT_FALSE(client.read_response().has_value());
  }
}

TEST(ClientReaderTest, MalformedLengthIsNullopt) {
  for (const char* frame : {"1x\nab", "\nab", "-2\nab", "banana\n"}) {
    const ScriptedPeer peer({frame});
    serve::Client client = connect_to(peer);
    EXPECT_FALSE(client.read_response().has_value()) << frame;
  }
}

TEST(ClientReaderTest, HugeLengthPrefixIsRefusedNotAllocated) {
  // A peer's length prefix alone used to size the payload buffer: 2^64 - 1
  // threw std::length_error out of predict(), 10^15 threw std::bad_alloc,
  // and 4 GiB was allocated and zero-filled.  Each is now a failed read.
  for (const char* length :
       {"18446744073709551615\n", "1000000000000000\n", "4294967296\n"}) {
    const ScriptedPeer peer({length, "{\"ok\":true}"});
    serve::Client client = connect_to(peer);
    EXPECT_FALSE(client.predict({"APP", "X", 4, 2}).has_value()) << length;
  }
}

TEST(ClientReaderTest, ReconnectDropsBytesBufferedFromTheOldConnection) {
  const ScriptedPeer first({"5\nfirst5\nstale"});
  const ScriptedPeer second({"5\nfresh"});
  serve::Client client = connect_to(first);
  EXPECT_EQ(client.read_response(), "first");
  client.close();
  client.connect("127.0.0.1", second.port());
  EXPECT_EQ(client.read_response(), "fresh");
}

// --- JSON escaping ----------------------------------------------------------

/// One field of a JSON object through the shared reader: nullopt when the
/// text is not one complete object or the field does not decode.
std::optional<std::string> string_field(const std::string& json,
                                        const char* name) {
  const auto object = support::json::Object::parse(json);
  if (!object.has_value()) return std::nullopt;
  return object->string(name);
}

std::optional<double> number_field(const std::string& json, const char* name) {
  const auto object = support::json::Object::parse(json);
  if (!object.has_value()) return std::nullopt;
  return object->number(name);
}

TEST(JsonEscapeTest, ControlCharactersBecomeValidJsonEscapes) {
  EXPECT_EQ(support::json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(support::json::escape("line1\nline2\ttab"),
            "line1\\nline2\\ttab");
  EXPECT_EQ(support::json::escape(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // No raw control byte may survive into the output.
  const std::string all = [] {
    std::string s;
    for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
    return s;
  }();
  for (char c : support::json::escape(all)) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonEscapeTest, NamedEscapesDecodeBackToBytes) {
  // The old decoder collapsed \n to a literal 'n'; a config string with a
  // newline came back as "line1nline2".
  const std::string json = "{\"v\":\"line1\\nline2\\ttab\\u0001\"}";
  const auto v = string_field(json, "v");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, std::string("line1\nline2\ttab\x01"));
}

TEST(JsonEscapeTest, UnicodeEscapesDecodeToUtf8) {
  const auto a = string_field("{\"v\":\"\\u0041\"}", "v");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "A");
  const auto e = string_field("{\"v\":\"\\u00e9\"}", "v");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, "\xc3\xa9");  // é as UTF-8
  const auto cjk = string_field("{\"v\":\"\\u4e2d\"}", "v");
  ASSERT_TRUE(cjk.has_value());
  EXPECT_EQ(*cjk, "\xe4\xb8\xad");  // 中 as UTF-8
  // Truncated or non-hex \u escapes are malformed, not silently mangled.
  EXPECT_FALSE(string_field("{\"v\":\"\\u12\"}", "v").has_value());
  EXPECT_FALSE(string_field("{\"v\":\"\\uzzzz\"}", "v").has_value());
}

TEST(JsonEscapeTest, RoundTripsAdversarialStrings) {
  // Deterministic xorshift so the property test is reproducible.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    const std::size_t len = next() % 64;
    for (std::size_t i = 0; i < len; ++i) {
      s += static_cast<char>(next() % 256);  // every byte value, incl. NUL
    }
    const std::string json = "{\"v\":\"" + support::json::escape(s) + "\"}";
    const auto back = string_field(json, "v");
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    EXPECT_EQ(*back, s) << "trial " << trial;
  }
}

TEST(JsonEscapeTest, PredictionWithHostileStringsRoundTrips) {
  serve::Prediction p;
  p.ok = false;
  p.error = "bad \"config\"\nwith \\ control \x02 bytes";
  p.key.application = "BT\ttabbed";
  p.key.config = "see \"ranks\": 7, oops";
  p.key.ranks = 4;
  p.key.chain_length = 2;
  const auto back = serve::parse_prediction(serve::prediction_json(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->error, p.error);
  EXPECT_EQ(back->key.application, p.key.application);
  EXPECT_EQ(back->key.config, p.key.config);
  EXPECT_EQ(back->key.ranks, 4);
}

// --- String- and depth-aware field reader -----------------------------------

TEST(JsonFieldTest, FieldNameInsideStringValueIsNotMatched) {
  // Adversarial payload with raw quotes inside a "string": the flat
  // substring search used to find the decoy "ranks": 7 inside the config
  // value and answer the wrong query.
  const std::string payload =
      "{\"op\":\"predict\",\"app\":\"BT\","
      "\"config\":\"see \"ranks\": 7, oops\",\"ranks\":4,\"chain\":2}";
  const auto request = serve::parse_request(payload);
  ASSERT_TRUE(request.has_value());
  ASSERT_EQ(request->queries.size(), 1u);
  EXPECT_EQ(request->queries[0].ranks, 4);
  EXPECT_EQ(request->queries[0].chain_length, 2u);
}

TEST(JsonFieldTest, EscapedQuotesInValuesDoNotHideLaterFields) {
  const std::string payload =
      "{\"config\":\"tricky \\\"chain\\\": 9 value\",\"chain\":3}";
  const auto chain = number_field(payload, "chain");
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(*chain, 3.0);
  const auto config = string_field(payload, "config");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(*config, "tricky \"chain\": 9 value");
}

TEST(JsonFieldTest, MissingFieldAndUnterminatedStringAreRejected) {
  EXPECT_FALSE(number_field("{\"a\":1}", "b").has_value());
  EXPECT_FALSE(string_field("{\"a\":\"unterminated", "a").has_value());
}

TEST(JsonFieldTest, NestedKeysNeverShadowTopLevelKeys) {
  // A batch whose element carries "op":"predict" ahead of the real op.
  const auto batch = serve::parse_request(
      "{\"queries\":[{\"op\":\"predict\",\"app\":\"APP\",\"config\":\"X\","
      "\"ranks\":4,\"chain\":2}],\"op\":\"batch\"}");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->op, serve::RequestOp::kBatch);
  ASSERT_EQ(batch->queries.size(), 1u);

  const auto predict = serve::parse_request(
      "{\"op\":\"predict\",\"meta\":{\"app\":\"EVIL\"},\"app\":\"APP\","
      "\"config\":\"X\",\"ranks\":4,\"chain\":2}");
  ASSERT_TRUE(predict.has_value());
  ASSERT_EQ(predict->queries.size(), 1u);
  EXPECT_EQ(predict->queries[0].application, "APP");

  // A batch element's trace id is not the request's.
  const std::string element =
      "{\"app\":\"APP\",\"config\":\"X\",\"ranks\":4,\"chain\":2,"
      "\"trace_id\":\"inner\"}";
  const auto untraced =
      serve::parse_request("{\"op\":\"batch\",\"queries\":[" + element + "]}");
  ASSERT_TRUE(untraced.has_value());
  EXPECT_EQ(untraced->trace_id, "");
  const auto traced = serve::parse_request(
      "{\"op\":\"batch\",\"queries\":[" + element + "],\"trace_id\":\"outer\"}");
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->trace_id, "outer");
}

TEST(JsonFieldTest, WhitespaceAfterColonIsAccepted) {
  // json.dumps' default separators: ", " and ": ".
  const auto ping = serve::parse_request("{\"op\": \"ping\"}");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->op, serve::RequestOp::kPing);
  const auto predict = serve::parse_request(
      "{\"op\": \"predict\", \"app\": \"BT\", \"config\": \"S\", "
      "\"ranks\": 4, \"chain\": 2}");
  ASSERT_TRUE(predict.has_value());
  ASSERT_EQ(predict->queries.size(), 1u);
  EXPECT_EQ(predict->queries[0].application, "BT");
  EXPECT_EQ(predict->queries[0].config, "S");
  EXPECT_EQ(predict->queries[0].ranks, 4);
  EXPECT_EQ(predict->queries[0].chain_length, 2u);
}

TEST(JsonFieldTest, UnterminatedStringRefusesTheWholeRequest) {
  EXPECT_FALSE(
      serve::parse_request("{\"op\":\"ping\",\"x\":\"unterminated}")
          .has_value());
}

TEST(JsonFieldTest, OutOfRangeRanksAreRefusedNotCast) {
  EXPECT_FALSE(serve::parse_request(
                   "{\"op\":\"predict\",\"app\":\"APP\",\"config\":\"X\","
                   "\"ranks\":1e300,\"chain\":2}")
                   .has_value());
  EXPECT_FALSE(serve::parse_request(
                   "{\"op\":\"predict\",\"app\":\"APP\",\"config\":\"X\","
                   "\"ranks\":4,\"chain\":1e300}")
                   .has_value());
}

TEST(JsonFieldTest, OutOfRangeIntegersInPredictionsAreRefusedNotCast) {
  const auto prediction = [](const std::string& fields) {
    return serve::parse_prediction("{\"ok\":true,\"app\":\"APP\"," +
                                   fields + "}");
  };
  // Each value lies outside its field's type: int ranks and donor_ranks,
  // std::size_t chain, std::uint64_t snapshot.  Casting any of them is
  // undefined behaviour; "ranks":1e300 used to read as INT_MIN and
  // "chain":-5 as 2^64 - 5.
  for (const char* fields :
       {"\"ranks\":1e300,\"chain\":2", "\"ranks\":4,\"chain\":-5",
        "\"ranks\":2147483648", "\"ranks\":-2147483649",
        "\"chain\":-1", "\"chain\":18446744073709551616",
        "\"donor_ranks\":1e10", "\"donor_ranks\":-3e9",
        "\"snapshot\":-1", "\"snapshot\":1e20"}) {
    EXPECT_FALSE(prediction(fields).has_value()) << fields;
  }
  // The ends of each range still parse, as before.
  const auto low = prediction(
      "\"ranks\":-2147483648,\"chain\":0,\"donor_ranks\":-2147483648,"
      "\"snapshot\":0");
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->key.ranks, std::numeric_limits<int>::min());
  EXPECT_EQ(low->key.chain_length, 0u);
  EXPECT_EQ(low->donor_ranks, std::numeric_limits<int>::min());
  EXPECT_EQ(low->snapshot_version, 0u);
  const auto high = prediction(
      "\"ranks\":2147483647,\"chain\":1.8e19,\"donor_ranks\":2147483647,"
      "\"snapshot\":18446744073709549568");
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(high->key.ranks, std::numeric_limits<int>::max());
  EXPECT_EQ(high->key.chain_length, 18000000000000000000u);
  EXPECT_EQ(high->donor_ranks, std::numeric_limits<int>::max());
  EXPECT_EQ(high->snapshot_version, 18446744073709549568u);

  // One bad element refuses the whole batch.
  const std::string good = serve::prediction_json(reader_prediction());
  ASSERT_TRUE(serve::parse_batch_response(
                  "{\"ok\":true,\"results\":[" + good + "]}")
                  .has_value());
  EXPECT_FALSE(serve::parse_batch_response(
                   "{\"ok\":true,\"results\":[" + good +
                   ",{\"ok\":true,\"ranks\":1e300}]}")
                   .has_value());
}

// --- Truncation and bit-flip sweep over the one reader ----------------------

/// A stats frame captured from a live server after one served query.
const char* const kStatsFrame =
    R"({"workers":4,"connections":2,"requests":1,"predictions":1,"errors":0,)"
    R"("rejected_overload":0,"malformed_frames":0,"oversized_frames":0,)"
    R"("cache_hits":1,"cache_misses":1,"cache_evictions":0,"cache_size":1,)"
    R"("snapshot_reloads":1,"snapshot_reload_failures":0,)"
    R"("snapshot_version":1,"db_records":5,"latency_count":1,)"
    R"("latency_p50_s":9.4839e-05,"latency_p95_s":9.4839e-05,)"
    R"("latency_p99_s":9.4839e-05,"latency_mean_s":9.4839e-05,)"
    R"("latency_max_s":9.4839e-05,"uptime_s":0.205399,)"
    R"("windows":{"1s":{"requests":1,"errors":0,"rps":1,"error_rate":0,)"
    R"("p50_s":9.34600830078125e-05,"p95_s":9.34600830078125e-05,)"
    R"("p99_s":9.34600830078125e-05},"10s":{"requests":1,"errors":0,)"
    R"("rps":0.10000000000000001,"error_rate":0,)"
    R"("p50_s":9.34600830078125e-05,"p95_s":9.34600830078125e-05,)"
    R"("p99_s":9.34600830078125e-05},"60s":{"requests":1,"errors":0,)"
    R"("rps":0.016666666666666666,"error_rate":0,)"
    R"("p50_s":9.34600830078125e-05,"p95_s":9.34600830078125e-05,)"
    R"("p99_s":9.34600830078125e-05}},"sources":{"snapshot_version":1,)"
    R"("exact":1,"nearest_donor":0,"model":0,"none":0},"drift":null})";

/// Every accessor on the keys the sample texts carry: the decoders must
/// stay in bounds whatever a flipped bit left in the index.
void touch_every_field(const std::string& text) {
  const auto object = support::json::Object::parse(text);
  if (!object.has_value()) return;
  for (const char* key : {"op", "app", "config", "ranks", "chain", "queries",
                          "trace_id", "ok", "error", "coupling_s", "source",
                          "windows", "sources", "drift", "requests"}) {
    (void)object->raw(key);
    (void)object->string(key);
    (void)object->number(key);
    if (const auto nested = object->object(key)) (void)nested->raw("1s");
    if (const auto array = object->raw(key)) {
      (void)support::json::for_each_object(*array, [](std::string_view e) {
        return support::json::Object::parse(e).has_value();
      });
    }
  }
}

std::vector<std::string> sweep_requests() {
  serve::QueryKey decoy{"APP", "see \"ranks\": 7 {oops}", 4, 2};
  return {serve::predict_request({"APP", "X", 4, 2}, "sweep-1"),
          serve::batch_request({{"APP", "X", 4, 2}, decoy}, "sweep-2")};
}

std::string sweep_prediction() {
  serve::Prediction p;
  p.ok = true;
  p.key = {"APP", "X", 4, 2};
  p.coupling_s = 0.26123873079507093;
  p.summation_s = 0.27503180720945508;
  p.actual_s = 0.27221431246075539;
  p.coupling_error = 0.040319634799756504;
  p.summation_error = 0.010350281450046394;
  p.alpha_source = "exact";
  p.inputs_source = "measured";
  p.source = "exact";
  p.snapshot_version = 1;
  return serve::attach_trace_id(serve::prediction_json(p), "sweep-3");
}

TEST(JsonFuzzTest, EveryStrictPrefixIsRejected) {
  for (const std::string& request : sweep_requests()) {
    ASSERT_TRUE(serve::parse_request(request).has_value()) << request;
    for (std::size_t cut = 0; cut < request.size(); ++cut) {
      EXPECT_FALSE(serve::parse_request(request.substr(0, cut)).has_value())
          << request.substr(0, cut);
    }
  }
  const std::string prediction = sweep_prediction();
  ASSERT_TRUE(serve::parse_prediction(prediction).has_value());
  for (std::size_t cut = 0; cut < prediction.size(); ++cut) {
    EXPECT_FALSE(
        serve::parse_prediction(prediction.substr(0, cut)).has_value())
        << prediction.substr(0, cut);
  }
  const std::string stats = kStatsFrame;
  ASSERT_TRUE(support::json::Object::parse(stats).has_value());
  for (std::size_t cut = 0; cut < stats.size(); ++cut) {
    EXPECT_FALSE(
        support::json::Object::parse(stats.substr(0, cut)).has_value())
        << stats.substr(0, cut);
  }
}

TEST(JsonFuzzTest, EverySingleBitFlipReturnsWithoutCrashing) {
  std::vector<std::string> texts = sweep_requests();
  texts.push_back(sweep_prediction());
  texts.push_back(kStatsFrame);
  std::size_t flips = 0;
  for (const std::string& text : texts) {
    for (std::size_t at = 0; at < text.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = text;
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        (void)serve::parse_request(flipped);
        (void)serve::parse_prediction(flipped);
        (void)serve::parse_batch_response(flipped);
        touch_every_field(flipped);
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 0u);
}

// --- Server wire behaviour --------------------------------------------------

/// Deterministic 3-kernel workload (mirror of test_serve.cpp's): means are
/// closed-form in ranks, so server predictions are instant and
/// reproducible.
class WireWorkload final : public serve::Workload {
 public:
  static constexpr std::size_t kLoop = 3;

  /// measure_cell throws for this rank count (0: never) — a request path
  /// that fails inside the engine.
  int throwing_ranks = 0;

  bool valid_cell(const std::string& application, const std::string& config,
                  int ranks) const override {
    return application == "APP" && config == "X" && ranks >= 1;
  }

  serve::CellInputs measure_cell(const std::string& application,
                                 const std::string& config,
                                 int ranks) const override {
    if (!valid_cell(application, config, ranks)) {
      throw std::invalid_argument("WireWorkload: invalid cell");
    }
    if (ranks == throwing_ranks) {
      throw std::runtime_error("WireWorkload: measurement failed");
    }
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

  static double mean(std::size_t k, int ranks) {
    return 0.01 * static_cast<double>(k + 1) / static_cast<double>(ranks);
  }
};

class WireServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("kcoup_wire_db_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".csv");
    coupling::CouplingDatabase db;
    add_group(&db, 4);
    add_group(&db, 16);
    test::save_db_in_env_format(std::move(db), path_.string());
    workload_ = std::make_unique<WireWorkload>();
    engine_ = std::make_unique<serve::QueryEngine>(workload_.get());
    source_ = std::make_unique<serve::SnapshotSource>(
        path_.string(), serve::CellFn{}, serve::SnapshotOptions{false});
    source_->load();
  }

  void TearDown() override {
    server_.reset();
    source_.reset();
    std::filesystem::remove(path_);
  }

  /// One complete q=2 chain group for (APP, X, ranks).
  static void add_group(coupling::CouplingDatabase* db, int ranks) {
    for (std::size_t start = 0; start < WireWorkload::kLoop; ++start) {
      coupling::CouplingRecord r;
      r.key = {"APP", "X", ranks, 2, start};
      r.isolated_sum =
          WireWorkload::mean(start, ranks) +
          WireWorkload::mean((start + 1) % WireWorkload::kLoop, ranks);
      r.chain_time =
          r.isolated_sum * (1.05 + 0.01 * static_cast<double>(start));
      db->record(r);
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

  std::filesystem::path path_;
  std::unique_ptr<WireWorkload> workload_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<serve::SnapshotSource> source_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(WireServerTest, OverflowingLengthPrefixGets400AndCloses) {
  start_server();
  serve::Client client = connect();
  // The 20-nines length wraps 64-bit accumulation; the unhardened server
  // computed a tiny garbage length, answered the "frame", and then read the
  // rest of the digits as the next frame's length — a desynchronized
  // stream.  Now it is one clean 400 and a close.
  const auto response =
      client.roundtrip_raw("99999999999999999999\n{\"op\":\"ping\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":400"), std::string::npos);
  EXPECT_EQ(server_->metrics().malformed_frames, 1u);
  EXPECT_FALSE(client.ping());  // connection closed after the error frame
}

TEST_F(WireServerTest, StockJsonEncoderSpacingIsServed) {
  start_server();
  serve::Client client = connect();
  // The frame Python's json.dumps writes for {"op": "ping"}.
  ASSERT_TRUE(client.send_request("{\"op\": \"ping\"}"));
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos) << *response;
}

TEST_F(WireServerTest, PipelinedRequestsAnswerInOrder) {
  start_server();
  serve::Client client = connect();
  // 12 requests in flight at once, with distinguishable answers: predicts
  // alternate between ranks 4 and 16, every third request is a ping.
  std::vector<std::string> expects;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 2) {
      ASSERT_TRUE(client.send_request(serve::ping_request()));
      expects.push_back("\"op\":\"ping\"");
    } else {
      const int ranks = (i % 2 == 0) ? 4 : 16;
      ASSERT_TRUE(client.send_request(
          serve::predict_request({"APP", "X", ranks, 2})));
      expects.push_back("\"ranks\":" + std::to_string(ranks) + ",");
    }
  }
  for (std::size_t i = 0; i < expects.size(); ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_NE(response->find(expects[i]), std::string::npos)
        << "response " << i << " out of order: " << *response;
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos)
        << *response;
  }
  EXPECT_EQ(server_->requests_handled(), 12u);
}

TEST_F(WireServerTest, PipelinedAnswersMatchBlockingAnswersBitForBit) {
  start_server();
  serve::Client blocking = connect();
  const auto reference = blocking.predict({"APP", "X", 4, 2});
  ASSERT_TRUE(reference.has_value());
  ASSERT_TRUE(reference->ok);

  serve::Client pipelined = connect();
  const std::string payload = serve::predict_request({"APP", "X", 4, 2});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipelined.send_request(payload));
  }
  for (int i = 0; i < 8; ++i) {
    const auto response = pipelined.read_response();
    ASSERT_TRUE(response.has_value());
    const auto p = serve::parse_prediction(*response);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->coupling_s, reference->coupling_s);
    EXPECT_EQ(p->summation_s, reference->summation_s);
    EXPECT_EQ(p->actual_s, reference->actual_s);
  }
}

TEST_F(WireServerTest, MalformedJsonPayloadMidPipelineKeepsConnection) {
  start_server();
  serve::Client client = connect();
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 4, 2})));
  ASSERT_TRUE(client.send_request("{\"op\":\"nonsense\"}"));
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 4, 2})));
  const auto first = client.read_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("\"ok\":true"), std::string::npos);
  const auto second = client.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"code\":400"), std::string::npos);
  const auto third = client.read_response();
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(third->find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(client.ping());  // bad payloads do not cost the connection
}

TEST_F(WireServerTest, MalformedFrameMidPipelineAnswersEarlierFramesFirst) {
  start_server();
  serve::Client client = connect();
  // Two good frames, then garbage where a length should be: both answers
  // must arrive before the 400, then the connection closes.
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 4, 2})));
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 16, 2})));
  const auto last = client.roundtrip_raw("banana\n");
  ASSERT_TRUE(last.has_value());
  // roundtrip_raw reads the FIRST queued response — the first predict.
  EXPECT_NE(last->find("\"ranks\":4,"), std::string::npos);
  const auto second = client.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"ranks\":16,"), std::string::npos);
  const auto error = client.read_response();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("\"code\":400"), std::string::npos);
  EXPECT_FALSE(client.read_response().has_value());  // closed
  EXPECT_EQ(server_->metrics().malformed_frames, 1u);
}

TEST_F(WireServerTest, PollBackendServesIdentically) {
  serve::ServerConfig config;
  config.force_poll = true;  // exercise the poll(2) fallback on Linux too
  start_server(config);
  serve::Client client = connect();
  EXPECT_TRUE(client.ping());
  const std::string payload = serve::predict_request({"APP", "X", 4, 2});
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(client.send_request(payload));
  for (int i = 0; i < 6; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  }
}

TEST_F(WireServerTest, MaxPipelineOneStillAnswersBackToBackFrames) {
  serve::ServerConfig config;
  config.max_pipeline = 1;  // every frame is its own window
  start_server(config);
  serve::Client client = connect();
  const std::string payload = serve::predict_request({"APP", "X", 4, 2});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client.send_request(payload));
  for (int i = 0; i < 5; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  }
  EXPECT_EQ(server_->requests_handled(), 5u);
}

TEST_F(WireServerTest, AcceptLoopSurvivesNonReadingRejectedPeers) {
  serve::ServerConfig config;
  config.workers = 1;
  config.max_inflight = 1;
  start_server(config);
  serve::Client first = connect();
  ASSERT_TRUE(first.ping());
  // A burst of rejected connections whose owners never read the 429 frame.
  // The reject send is a single non-blocking best-effort write, so none of
  // them can stall the accept loop.
  std::vector<serve::Client> rejected;
  for (int i = 0; i < 8; ++i) rejected.push_back(connect());
  // connect() returns on the TCP handshake (listen backlog), before the
  // acceptor has processed — and rejected — the connection; give it time.
  const auto reject_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->metrics().rejected_overload < 8u &&
         std::chrono::steady_clock::now() < reject_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->metrics().rejected_overload, 8u);
  first.close();
  // Accepts must still be live: a retry gets through once capacity frees.
  bool accepted = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    serve::Client retry = connect();
    if (retry.ping()) {
      accepted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(accepted);
}


TEST_F(WireServerTest, ThrowingPredictionAnswers500AndTheShardKeepsServing) {
  workload_->throwing_ranks = 7;
  serve::ServerConfig config;
  config.workers = 1;  // the throw and the later requests share one shard
  start_server(config);
  serve::Client client = connect();
  const auto failed = client.roundtrip(serve::predict_request({"APP", "X", 7, 2}));
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(*failed,
            serve::error_json("prediction failed: WireWorkload: measurement "
                              "failed",
                              500));
  EXPECT_EQ(server_->metrics().errors, 1u);

  // Pipelined behind a throwing predict: every predict/batch frame of its
  // window fails with it, other ops are answered, and the connection lives.
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 7, 2})));
  ASSERT_TRUE(client.send_request(serve::ping_request("after-throw")));
  const auto second = client.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"code\":500"), std::string::npos) << *second;
  const auto ping = client.read_response();
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(*ping,
            "{\"ok\":true,\"op\":\"ping\",\"trace_id\":\"after-throw\"}");

  // The canonical predict on the same connection still answers.
  const auto canonical = client.predict({"APP", "X", 4, 2});
  ASSERT_TRUE(canonical.has_value());
  EXPECT_TRUE(canonical->ok) << canonical->error;
  EXPECT_EQ(server_->metrics().errors, 2u);
}

/// A blocking connection whose reads give up after a deadline, so a shard
/// that stops answering fails the test instead of hanging it.
class DeadlineConnection {
 public:
  DeadlineConnection(int port, int deadline_s) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const timeval timeout{deadline_s, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~DeadlineConnection() { ::close(fd_); }
  DeadlineConnection(const DeadlineConnection&) = delete;
  DeadlineConnection& operator=(const DeadlineConnection&) = delete;

  /// The answer to `payload`, or nullopt when none arrives in time.
  std::optional<std::string> roundtrip(const std::string& payload) {
    const std::string frame = serve::encode_frame(payload);
    if (::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      return std::nullopt;
    }
    for (;;) {
      std::string_view answer;
      const auto status = serve::decode_frame(std::string_view(rx_), &pos_,
                                              std::size_t{1} << 20, &answer);
      if (status == serve::FrameDecodeStatus::kFrame) return std::string(answer);
      if (status != serve::FrameDecodeStatus::kNeedMore) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;  // closed, or the deadline passed
      rx_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string rx_;
  std::size_t pos_ = 0;
};

TEST_F(WireServerTest, NoRequestValueStopsTheShard) {
  // Each boundary value of the integer rule, and each spelling at the edge
  // of its digit path, as `ranks` and as `chain`, in a predict and in a
  // batch element: every request is answered, refused with 400 or served,
  // and the one shard then answers a canonical predict.
  struct Value {
    const char* text;
    bool served;  // an integer in [1, INT_MAX]
  };
  const Value kValues[] = {
      {"0", false},
      {"1", true},
      {"-1", false},
      {"4.9", false},
      {"2147483647", true},
      {"2147483648", false},
      {"9007199254740992", false},
      {"1e300", false},
      {"999999999999999", false},
      {"1000000000000000", false},
      {"9007199254740993", false},
      {"0004", true},
      {"+4", true},
      {" 4", true},
  };
  serve::ServerConfig config;
  config.workers = 1;
  start_server(config);
  DeadlineConnection peer(server_->port(), 10);
  const std::string canonical = serve::predict_request({"APP", "X", 4, 2});
  for (const Value& v : kValues) {
    for (const bool ranks : {true, false}) {
      const std::string fields =
          std::string("\"app\":\"APP\",\"config\":\"X\",\"ranks\":") +
          (ranks ? v.text : "4") + ",\"chain\":" + (ranks ? "2" : v.text);
      const std::string predict = "{\"op\":\"predict\"," + fields + "}";
      const std::string batch =
          "{\"op\":\"batch\",\"queries\":[{\"app\":\"APP\",\"config\":"
          "\"X\",\"ranks\":4,\"chain\":2},{" +
          fields + "}]}";
      for (const std::string& payload : {predict, batch}) {
        SCOPED_TRACE(payload);
        const auto answer = peer.roundtrip(payload);
        ASSERT_TRUE(answer.has_value()) << "no answer in time";
        if (!v.served) {
          EXPECT_NE(answer->find("\"code\":400"), std::string::npos)
              << *answer;
        } else if (payload == predict) {
          EXPECT_TRUE(serve::parse_prediction(*answer).has_value()) << *answer;
        } else {
          const auto results = serve::parse_batch_response(*answer);
          ASSERT_TRUE(results.has_value()) << *answer;
          EXPECT_EQ(results->size(), 2u);
        }
        const auto after = peer.roundtrip(canonical);
        ASSERT_TRUE(after.has_value()) << "the shard stopped";
        const auto p = serve::parse_prediction(*after);
        ASSERT_TRUE(p.has_value()) << *after;
        EXPECT_TRUE(p->ok) << *after;
      }
    }
  }
}

TEST_F(WireServerTest, BurstOfTenThousandQueuedRequestsIsAnsweredInFull) {
  start_server();
  serve::Client client = connect();
  const std::string payload = serve::predict_request({"APP", "X", 4, 2});
  constexpr int kBurst = 10000;  // ~650 KB of requests, ten 64 KiB flushes
  for (int i = 0; i < kBurst; ++i) ASSERT_TRUE(client.send_request(payload));
  for (int i = 0; i < kBurst; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    ASSERT_NE(response->find("\"ok\":true"), std::string::npos) << *response;
  }
  EXPECT_EQ(server_->requests_handled(), static_cast<std::uint64_t>(kBurst));
}

TEST_F(WireServerTest, CloseAndConnectDropQueuedRequestsAndMovesCarryThem) {
  start_server();
  serve::Client client = connect();
  // Queued, never sent: close() drops them with the connection.
  ASSERT_TRUE(client.send_request(serve::ping_request()));
  ASSERT_TRUE(client.send_request(serve::ping_request()));
  client.close();
  client.connect("127.0.0.1", server_->port());
  // connect() on an open client starts it empty too.
  ASSERT_TRUE(client.send_request(serve::ping_request()));
  client.connect("127.0.0.1", server_->port());
  const auto first = client.roundtrip(serve::predict_request({"APP", "X", 16, 2}));
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("\"ranks\":16,"), std::string::npos) << *first;
  EXPECT_EQ(server_->requests_handled(), 1u);

  // A move carries the queued request; the moved-from client has none.
  ASSERT_TRUE(client.send_request(serve::predict_request({"APP", "X", 4, 2})));
  serve::Client moved = std::move(client);
  EXPECT_FALSE(client.read_response().has_value());
  ASSERT_TRUE(moved.send_request(serve::ping_request()));
  serve::Client assigned;
  assigned = std::move(moved);
  const auto predict = assigned.read_response();
  ASSERT_TRUE(predict.has_value());
  EXPECT_NE(predict->find("\"ranks\":4,"), std::string::npos) << *predict;
  const auto ping = assigned.read_response();
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(*ping, "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(server_->requests_handled(), 3u);
}

TEST_F(WireServerTest, MovesCarryTheTraceContext) {
  start_server();
  // A fixed id survives both moves and goes out with the next request.
  serve::Client fixed = connect();
  fixed.set_trace_id("abc");
  serve::Client moved = std::move(fixed);
  EXPECT_EQ(fixed.last_trace_id(), "");
  ASSERT_TRUE(moved.ping());
  EXPECT_EQ(moved.last_trace_id(), "abc");
  serve::Client assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(assigned.ping());
  EXPECT_EQ(assigned.last_trace_id(), "abc");

  // Generated ids keep their prefix and count across a move.
  serve::Client generated = connect();
  generated.auto_trace_ids("p");
  ASSERT_TRUE(generated.ping());
  EXPECT_EQ(generated.last_trace_id(), "p-1");
  serve::Client carried = std::move(generated);
  EXPECT_EQ(carried.last_trace_id(), "p-1");
  ASSERT_TRUE(carried.ping());
  EXPECT_EQ(carried.last_trace_id(), "p-2");
  serve::Client reassigned;
  reassigned = std::move(carried);
  ASSERT_TRUE(reassigned.ping());
  EXPECT_EQ(reassigned.last_trace_id(), "p-3");
}

TEST_F(WireServerTest, RequestQueuedToAClosedConnectionReadsAsNullopt) {
  // A peer that accepts and closes at once.  Were the client's sends
  // missing MSG_NOSIGNAL, the writes after the reset would raise SIGPIPE
  // and end this process.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  serve::Client client;
  client.connect("127.0.0.1", ntohs(addr.sin_port));
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  ::close(accepted);
  ::close(listener);

  const std::string payload = serve::predict_request({"APP", "X", 4, 2});
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(client.send_request(payload)) << "round " << round;
    EXPECT_FALSE(client.read_response().has_value()) << "round " << round;
  }
  // Past 64 KiB the queue is sent from send_request itself, which then
  // reports the failed send.
  bool refused = false;
  for (int i = 0; i < 10000 && !refused; ++i) {
    refused = !client.send_request(payload);
  }
  EXPECT_TRUE(refused);
}

// --- Served bytes golden ----------------------------------------------------

/// Send one request frame on a plain socket and return the raw bytes of the
/// one response frame, length prefix included.  Nothing else is in flight,
/// so the bytes received up to the frame's end are exactly that frame.
std::string raw_exchange(int fd, const std::string& request) {
  const std::string frame = serve::encode_frame(request);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return {};
    sent += static_cast<std::size_t>(n);
  }
  std::string got;
  for (;;) {
    std::size_t pos = 0;
    std::string_view payload;
    if (serve::decode_frame(std::string_view(got), &pos, 1 << 20,
                            &payload) != serve::FrameDecodeStatus::kNeedMore) {
      return got;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return got;
    got.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Every served answer kind over the committed NPB campaign, with models
/// fitted: exact, nearest-donor, model path, unknown application, a
/// malformed request and a batch, each without and with a trace id, each as
/// request payload and raw response frame.
std::string render_served_frames() {
  serve::NpbWorkload workload(machine::ibm_sp_p2sc());
  serve::QueryEngine engine(&workload);
  serve::SnapshotSource source(
      std::string(KCOUP_TEST_DATA_DIR) + "/npb_campaign.csv",
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      serve::SnapshotOptions{});
  source.load();
  serve::ServerConfig config;
  config.workers = 1;
  serve::Server server(&source, &engine, config);
  server.start();

  const serve::QueryKey exact{"bt", "S", 4, 2};
  const serve::QueryKey nearest{"bt", "S", 9, 2};
  const serve::QueryKey model{"bt", "S", 5, 2};
  const serve::QueryKey unknown{"xx", "S", 4, 2};
  const std::vector<serve::QueryKey> batch{
      exact, {"SP", "w", 16, 3}, nearest, {"lu", "S", 5, 2}, unknown};
  struct Case {
    const char* name;
    std::string request;
  };
  std::vector<Case> cases;
  for (const char* id : {"", "golden-trace-1"}) {
    cases.push_back({"exact", serve::predict_request(exact, id)});
    cases.push_back({"nearest-donor", serve::predict_request(nearest, id)});
    cases.push_back({"model", serve::predict_request(model, id)});
    cases.push_back({"unknown-app", serve::predict_request(unknown, id)});
    cases.push_back(
        {"malformed", serve::attach_trace_id(
                          "{\"op\":\"predict\",\"app\":\"bt\",\"config\":"
                          "\"S\",\"chain\":2}",
                          id)});
    cases.push_back({"batch", serve::batch_request(batch, id)});
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string text;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    for (const Case& c : cases) {
      text += "=== ";
      text += c.name;
      text += '\n';
      text += c.request;
      text += '\n';
      text += raw_exchange(fd, c.request);
      text += '\n';
    }
  }
  ::close(fd);
  server.stop();
  return text;
}

TEST(ServedFramesGolden, ResponseBytesMatchTheCheckedInFrames) {
  const std::string path =
      std::string(KCOUP_TEST_DATA_DIR) + "/served_frames.txt";
  const std::string text = render_served_frames();
  ASSERT_FALSE(text.empty()) << "could not reach the server";

  if (std::getenv("KCOUP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path << " missing; run with KCOUP_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), text)
      << "a served frame drifted from tests/data/served_frames.txt";
}

}  // namespace
}  // namespace kcoup

// The wire codec must not allocate once warm: a server shard decodes each
// pipelined request into the Request it kept from the last window, the
// client decodes each answer into short strings, and both encode into a
// buffer that has grown to its working size.  This binary replaces the
// global operator new with a counting one, so it holds no other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The array and nothrow forms forward to this one.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace kcoup::serve {
namespace {

constexpr int kRounds = 64;

// Served answers of both kinds a warm client reads, as
// tests/data/served_frames.txt pins them.
const char kExactAnswer[] =
    R"({"ok":true,"app":"BT","config":"S","ranks":4,"chain":2,)"
    R"("coupling_s":0.26123873079507093,"summation_s":0.27503180720945508,)"
    R"("actual_s":0.27221431246075539,"coupling_err":0.040319634799756504,)"
    R"("summation_err":0.010350281450046394,"alpha":"exact",)"
    R"("inputs":"measured","source":"exact","cache":"hit","snapshot":1})";
const char kNearestAnswer[] =
    R"({"ok":true,"app":"BT","config":"S","ranks":9,"chain":2,)"
    R"("coupling_s":0.17943760161481492,"summation_s":0.14800033741392982,)"
    R"("actual_s":0.16542510160237278,"coupling_err":0.084706008197737465,)"
    R"("summation_err":0.10533325365775706,"alpha":"nearest",)"
    R"("inputs":"measured","source":"nearest-donor","donor_ranks":16,)"
    R"("cache":"miss","snapshot":1})";

TEST(WireAllocationTest, CountingNewSeesEveryAllocation) {
  const std::size_t before = g_allocations.load();
  auto boxed = std::make_unique<std::vector<double>>(4);
  EXPECT_EQ(g_allocations.load() - before, 2u);
}

TEST(WireAllocationTest, RequestsDecodeIntoAReusedRequestWithoutAllocating) {
  const std::vector<std::string> payloads = {
      predict_request({"bt", "S", 4, 2}, "c0-17"),
      batch_request({{"bt", "S", 4, 2}, {"sp", "W", 9, 3}}, "c1-2"),
      ping_request("c2-9"),
      predict_request({"lu", "A", 16, 4}),
  };
  Request request;
  // Warm-up: the batch grows the query list to its high-water size.
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(parse_request_into(payload, &request)) << payload;
  }
  const std::size_t before = g_allocations.load();
  std::size_t queries = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& payload : payloads) {
      EXPECT_TRUE(parse_request_into(payload, &request));
      queries += request.queries.size();
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(queries, kRounds * 4u);
}

TEST(WireAllocationTest, ExactAndNearestAnswersDecodeWithoutAllocating) {
  ASSERT_TRUE(parse_prediction(kExactAnswer).has_value());
  ASSERT_TRUE(parse_prediction(kNearestAnswer).has_value());
  const std::size_t before = g_allocations.load();
  int donors = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto exact = parse_prediction(kExactAnswer);
    const auto nearest = parse_prediction(kNearestAnswer);
    EXPECT_TRUE(exact.has_value() && exact->source == "exact");
    EXPECT_TRUE(nearest.has_value() && nearest->source == "nearest-donor");
    if (nearest.has_value()) donors += nearest->donor_ranks;
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(donors, kRounds * 16);
}

TEST(WireAllocationTest, EncodersIntoAWarmBufferAllocateNothing) {
  const auto answer = parse_prediction(kNearestAnswer);
  ASSERT_TRUE(answer.has_value());
  const QueryKey query{"bt", "S", 4, 2};
  std::string buffer;
  // Warm-up: the buffer grows to one of each payload.
  append_prediction_json(buffer, *answer);
  append_predict_request(buffer, query, "c0-17");
  const std::size_t bytes = buffer.size();
  const std::size_t before = g_allocations.load();
  for (int round = 0; round < kRounds; ++round) {
    buffer.clear();
    append_prediction_json(buffer, *answer);
    append_predict_request(buffer, query, "c0-17");
    EXPECT_EQ(buffer.size(), bytes);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace kcoup::serve

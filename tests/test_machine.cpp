// Tests for the machine model: cache stack distances, the three pricing
// rules (cyclic scan, producer-fresh, streaming store), communication and
// synchronisation costs, and the presets.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "machine/cache_model.hpp"
#include "machine/config.hpp"
#include "machine/machine.hpp"

namespace kcoup::machine {
namespace {

MachineConfig tiny_machine() {
  MachineConfig c;
  c.name = "tiny";
  c.flops_per_second = 1e9;
  c.cache.push_back(CacheLevel{1000, 1e-9});   // "L1": 1000 bytes
  c.cache.push_back(CacheLevel{10000, 1e-8});  // "L2": 10000 bytes
  c.memory_seconds_per_byte = 1e-7;
  c.net_latency_s = 1e-6;
  c.net_seconds_per_byte = 1e-9;
  c.sync_latency_s = 1e-6;
  c.imbalance_coeff = 0.5;
  c.ranks = 1;
  return c;
}

std::size_t total_cached(const CacheModel::AccessCost& c) {
  std::size_t s = 0;
  for (auto b : c.level_bytes) s += b;
  return s;
}

TEST(CacheModelTest, CompulsoryMissGoesToMemory) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId r = cache.register_region("a", 500);
  const CacheModel::AccessCost c =
      cache.access(0, kInvalidKernel, RegionAccess{r, AccessKind::kRead, 500},
                   0, 1);
  EXPECT_EQ(c.memory_bytes, 500u);
  EXPECT_EQ(total_cached(c), 0u);
}

TEST(CacheModelTest, SelfReuseHitsLevelThatFits) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId r = cache.register_region("a", 500);
  const RegionAccess a{r, AccessKind::kRead, 500};
  (void)cache.access(0, kInvalidKernel, a, 0, 1);
  cache.end_invocation(0, 500);
  const auto c = cache.access(0, 0, a, 0, 1);
  // 500-byte region, zero intervening traffic: fits the 1000-byte L1.
  EXPECT_EQ(c.level_bytes[0], 500u);
  EXPECT_EQ(c.memory_bytes, 0u);
}

TEST(CacheModelTest, CyclicScanIsAllOrNothing) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  // A region larger than L1 but fitting L2: re-traversals never hit L1.
  const RegionId r = cache.register_region("big", 2000);
  const RegionAccess a{r, AccessKind::kRead, 2000};
  (void)cache.access(0, kInvalidKernel, a, 0, 1);
  const auto c = cache.access(0, 0, a, 0, 1);
  EXPECT_EQ(c.level_bytes[0], 0u);     // nothing from L1
  EXPECT_EQ(c.level_bytes[1], 2000u);  // everything from L2
}

TEST(CacheModelTest, InterveningTrafficEvicts) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId a = cache.register_region("a", 600);
  const RegionId b = cache.register_region("b", 600);
  const RegionAccess ra{a, AccessKind::kRead, 600};
  const RegionAccess rb{b, AccessKind::kRead, 600};
  (void)cache.access(0, kInvalidKernel, ra, 0, 1);
  (void)cache.access(0, kInvalidKernel, rb, 600, 1);
  // Re-reading `a` now has 600 bytes of intervening traffic: 600 + 600
  // exceeds the 1000-byte L1, so the read comes from L2 entirely.
  const auto c = cache.access(0, 0, ra, 0, 1);
  EXPECT_EQ(c.level_bytes[0], 0u);
  EXPECT_EQ(c.level_bytes[1], 600u);
}

TEST(CacheModelTest, StackDistanceTracksRecency) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId a = cache.register_region("a", 100);
  const RegionId b = cache.register_region("b", 200);
  EXPECT_EQ(cache.stack_distance(a), SIZE_MAX);
  (void)cache.access(0, kInvalidKernel, RegionAccess{a, AccessKind::kRead, 100}, 0, 1);
  (void)cache.access(0, kInvalidKernel, RegionAccess{b, AccessKind::kRead, 200}, 100, 1);
  EXPECT_EQ(cache.stack_distance(b), 0u);
  EXPECT_EQ(cache.stack_distance(a), 200u);
}

TEST(CacheModelTest, StreamingWritePricedByFootprint) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId small = cache.register_region("small", 800);
  const RegionId large = cache.register_region("large", 5000);
  // First-touch writes: no read-for-ownership; priced by landing level.
  const auto c1 = cache.access(
      0, kInvalidKernel, RegionAccess{small, AccessKind::kWrite, 800}, 0, 1);
  EXPECT_EQ(c1.level_bytes[0], 800u);  // fits L1
  const auto c2 = cache.access(
      0, kInvalidKernel, RegionAccess{large, AccessKind::kWrite, 5000}, 0, 1);
  EXPECT_EQ(c2.level_bytes[1], 5000u);  // fits L2 only
}

TEST(CacheModelTest, ScratchBufferStreamsAtItsFootprintLevel) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  // 400-byte buffer streaming 100x its size: footprint, not traffic, decides.
  const RegionId buf = cache.register_region("buf", 400);
  (void)cache.access(0, kInvalidKernel,
                     RegionAccess{buf, AccessKind::kWrite, 40000}, 0, 1);
  const auto c =
      cache.access(0, 0, RegionAccess{buf, AccessKind::kRead, 40000}, 0, 1);
  EXPECT_EQ(c.level_bytes[0], 40000u);  // hot 400-byte buffer: all L1
  EXPECT_EQ(cache.stack_distance(buf), 0u);
}

TEST(CacheModelTest, FreshRuleRequiresImmediatePredecessor) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId r = cache.register_region("data", 3000);  // > L1
  // Kernel 1 writes the region.
  (void)cache.access(1, kInvalidKernel,
                     RegionAccess{r, AccessKind::kWrite, 3000}, 0, 1);
  cache.end_invocation(1, 3000);

  // Kernel 2 reads it fresh with enough pipeline stages: window
  // (3000 + 3000) / 10 = 600 <= 1000 -> L1.
  RegionAccess read{r, AccessKind::kRead, 3000};
  read.fresh_fraction = 1.0;
  const auto hit = cache.access(2, /*prev=*/1, read, 0, 10);
  EXPECT_EQ(hit.level_bytes[0], 3000u);

  cache.end_invocation(2, 3000);
  // Kernel 3 runs after kernel 2 (which only read the region): the last
  // toucher is now kernel 2, so freshness applies relative to kernel 2...
  const auto hit2 = cache.access(3, /*prev=*/2, read, 0, 10);
  EXPECT_EQ(hit2.level_bytes[0], 3000u);
  cache.end_invocation(3, 3000);

  // ...but a kernel whose predecessor did NOT touch the region gets the
  // plain scan rule (3000-byte region -> L2, not L1).
  const RegionId other = cache.register_region("other", 100);
  (void)cache.access(4, 3, RegionAccess{other, AccessKind::kRead, 100}, 0, 1);
  cache.end_invocation(4, 100);
  const auto miss = cache.access(5, /*prev=*/4, read, 0, 10);
  EXPECT_EQ(miss.level_bytes[0], 0u);
  EXPECT_EQ(miss.level_bytes[1], 3000u);
}

TEST(CacheModelTest, IsolatedLoopNeverQualifiesAsFresh) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId r = cache.register_region("data", 3000);
  RegionAccess read{r, AccessKind::kRead, 3000};
  read.fresh_fraction = 1.0;
  (void)cache.access(1, kInvalidKernel,
                     RegionAccess{r, AccessKind::kWrite, 3000}, 0, 1);
  cache.end_invocation(1, 3000);
  // Same kernel again: prev == self, so the fresh rule must not apply.
  const auto c = cache.access(1, /*prev=*/1, read, 0, 10);
  EXPECT_EQ(c.level_bytes[0], 0u);
  EXPECT_EQ(c.level_bytes[1], 3000u);
}

TEST(CacheModelTest, ResetColdStartsEverything) {
  const MachineConfig cfg = tiny_machine();
  CacheModel cache(cfg);
  const RegionId r = cache.register_region("a", 500);
  (void)cache.access(0, kInvalidKernel, RegionAccess{r, AccessKind::kRead, 500}, 0, 1);
  cache.end_invocation(0, 500);
  cache.reset();
  EXPECT_EQ(cache.stack_distance(r), SIZE_MAX);
  EXPECT_EQ(cache.last_toucher(r), kInvalidKernel);
  const auto c = cache.access(0, kInvalidKernel,
                              RegionAccess{r, AccessKind::kRead, 500}, 0, 1);
  EXPECT_EQ(c.memory_bytes, 500u);
}

TEST(MachineTest, ComputeCostIsFlopsOverRate) {
  Machine m(tiny_machine());
  WorkProfile p;
  p.kernel = 0;
  p.flops = 2e9;
  const CostBreakdown c = m.execute(p);
  EXPECT_DOUBLE_EQ(c.compute_s, 2.0);
  EXPECT_DOUBLE_EQ(c.total(), 2.0);
}

TEST(MachineTest, MessageCostUsesAlphaBetaAndContention) {
  MachineConfig cfg = tiny_machine();
  cfg.ranks = 4;
  cfg.net_contention_coeff = 0.5;  // 1 + 0.5*log2(4) = 2
  Machine m(cfg);
  WorkProfile p;
  p.kernel = 0;
  p.messages = {MessageOp{2, 1000}};
  const CostBreakdown c = m.execute(p);
  const double expected = 2 * (1e-6 + 1000 * 1e-9 * 2.0);
  EXPECT_NEAR(c.comm_s, expected, 1e-15);
}

TEST(MachineTest, IsolatedLoopPaysNoSkewPenalty) {
  MachineConfig cfg = tiny_machine();
  cfg.ranks = 4;
  Machine m(cfg);
  WorkProfile p;
  p.kernel = 7;
  p.synchronizes = true;
  p.imbalance_weight = 1.0;
  p.messages = {MessageOp{4, 100}};
  (void)m.execute(p);  // first invocation: prev is invalid
  const CostBreakdown second = m.execute(p);  // prev == self
  // Only the base barrier cost remains (2 tree hops at 1us).
  EXPECT_DOUBLE_EQ(second.sync_s, 2e-6);
}

TEST(MachineTest, AlternatingKernelsPaySkewPenalty) {
  MachineConfig cfg = tiny_machine();
  cfg.ranks = 4;
  Machine m(cfg);
  WorkProfile a, b;
  a.kernel = 1;
  b.kernel = 2;
  for (WorkProfile* p : {&a, &b}) {
    p->synchronizes = true;
    p->imbalance_weight = 1.0;
    p->messages = {MessageOp{4, 100}};
  }
  (void)m.execute(a);
  const CostBreakdown cb = m.execute(b);
  EXPECT_GT(cb.sync_s, 2e-6);  // base barrier + decorrelation penalty
}

TEST(MachineTest, SingleRankHasNoSyncOrContention) {
  Machine m(tiny_machine());
  WorkProfile p;
  p.kernel = 0;
  p.synchronizes = true;
  p.imbalance_weight = 1.0;
  const CostBreakdown c = m.execute(p);
  EXPECT_DOUBLE_EQ(c.sync_s, 0.0);
}

TEST(MachineTest, SkewCorrelationProperties) {
  EXPECT_DOUBLE_EQ(Machine::skew_correlation(3, 3), 1.0);
  const double c12 = Machine::skew_correlation(1, 2);
  EXPECT_DOUBLE_EQ(Machine::skew_correlation(2, 1), c12);  // symmetric
  EXPECT_GE(c12, 0.0);
  EXPECT_LT(c12, 1.0);
  EXPECT_DOUBLE_EQ(Machine::skew_correlation(kInvalidKernel, 2), 0.0);
}

TEST(MachineTest, ResetStateRestoresColdBehaviour) {
  Machine m(tiny_machine());
  const RegionId r = m.register_region("a", 500);
  WorkProfile p;
  p.kernel = 0;
  p.accesses = {RegionAccess{r, AccessKind::kRead, 500}};
  const double cold = m.execute_seconds(p);
  const double warm = m.execute_seconds(p);
  EXPECT_LT(warm, cold);
  m.reset_state();
  EXPECT_DOUBLE_EQ(m.execute_seconds(p), cold);
}

// --- Copying and moving ------------------------------------------------------
//
// A Machine owns its whole state, so a copy, or a machine moved into, must
// price exactly like a fresh machine that lived through the same history.

constexpr std::size_t kWarmBytes = 64 * 1024;  // fits the preset's 128 KiB L1

WorkProfile reread(RegionId r) {
  WorkProfile p;
  p.kernel = 0;
  p.accesses = {RegionAccess{r, AccessKind::kRead, kWarmBytes}};
  return p;
}

void expect_same_cost(const CostBreakdown& got, const CostBreakdown& want) {
  EXPECT_EQ(got.compute_s, want.compute_s);
  ASSERT_EQ(got.cache_s.size(), want.cache_s.size());
  for (std::size_t i = 0; i < want.cache_s.size(); ++i) {
    EXPECT_EQ(got.cache_s[i], want.cache_s[i]) << "level " << i;
  }
  EXPECT_EQ(got.memory_s, want.memory_s);
  EXPECT_EQ(got.comm_s, want.comm_s);
  EXPECT_EQ(got.sync_s, want.sync_s);
  EXPECT_EQ(got.total(), want.total());
}

TEST(MachineTest, CopyOutlivesItsOriginal) {
  Machine fresh(ibm_sp_p2sc());
  const WorkProfile p = reread(fresh.register_region("a", kWarmBytes));
  (void)fresh.execute(p);

  std::optional<Machine> original(std::in_place, ibm_sp_p2sc());
  (void)original->register_region("a", kWarmBytes);
  (void)original->execute(p);
  Machine copy(*original);
  // Destroy the original and build a cacheless machine in its storage: a
  // copy that still read its original's config would now price the warm
  // re-read at main-memory speed.
  MachineConfig cacheless = ibm_sp_p2sc();
  cacheless.cache.clear();
  original.emplace(cacheless);

  const CostBreakdown warm = fresh.execute(p);
  EXPECT_GT(warm.cache_s[0], 0.0);  // the re-read hits L1
  EXPECT_EQ(warm.memory_s, 0.0);
  expect_same_cost(copy.execute(p), warm);
}

TEST(MachineTest, MovedToMachinePricesLikeAFreshOne) {
  Machine fresh(ibm_sp_p2sc());
  const WorkProfile p = reread(fresh.register_region("a", kWarmBytes));
  (void)fresh.execute(p);

  Machine source(ibm_sp_p2sc());
  (void)source.register_region("a", kWarmBytes);
  (void)source.execute(p);
  Machine moved(std::move(source));

  const CostBreakdown warm = fresh.execute(p);
  EXPECT_GT(warm.cache_s[0], 0.0);  // the re-read hits L1
  EXPECT_EQ(warm.memory_s, 0.0);
  expect_same_cost(moved.execute(p), warm);
  // Move assignment too: the target takes the source's history.
  Machine assigned(generic_smp());
  assigned = std::move(moved);
  expect_same_cost(assigned.execute(p), fresh.execute(p));
}

/// A profile for `kernel` that reads (region, bytes) pairs in order.
WorkProfile reads(KernelId kernel,
                  std::vector<std::pair<RegionId, std::size_t>> accesses) {
  WorkProfile p;
  p.kernel = kernel;
  for (const auto& [region, bytes] : accesses) {
    p.accesses.push_back(RegionAccess{region, AccessKind::kRead, bytes});
  }
  return p;
}

TEST(MachineTest, StateEqualitySeesEveryPartOfTheState) {
  // Each case's two runs end in states that differ in exactly one part.
  Machine m(tiny_machine());
  const RegionId a = m.register_region("A", 1000);
  const RegionId b = m.register_region("B", 1000);
  struct Case {
    const char* part;
    std::vector<WorkProfile> first, second;
  };
  const std::vector<Case> cases{
      {"stack order", {reads(0, {{a, 100}, {b, 100}})},
       {reads(0, {{b, 100}, {a, 100}})}},
      {"stack footprints", {reads(0, {{a, 100}, {b, 200}})},
       {reads(0, {{a, 200}, {b, 100}})}},
      {"last toucher", {reads(0, {{a, 100}}), reads(2, {{b, 100}})},
       {reads(1, {{a, 100}}), reads(2, {{b, 100}})}},
      {"producer footprint",
       {reads(0, {{a, 100}, {b, 50}}), reads(2, {{b, 50}})},
       {reads(0, {{a, 100}, {b, 60}}), reads(2, {{b, 50}})}},
      {"previous kernel", {reads(0, {{a, 100}}), reads(1, {})},
       {reads(0, {{a, 100}}), reads(2, {})}},
  };
  const auto run = [&m](const std::vector<WorkProfile>& profiles) {
    m.reset_state();
    for (const WorkProfile& p : profiles) (void)m.execute(p);
  };
  Machine::State first, second;
  for (const Case& c : cases) {
    run(c.first);
    m.save_state(first);
    run(c.second);
    m.save_state(second);
    EXPECT_TRUE(m.state_equals(second)) << c.part;
    EXPECT_FALSE(m.state_equals(first)) << c.part;
    run(c.first);  // the same history from cold reaches the same state
    EXPECT_TRUE(m.state_equals(first)) << c.part;
    EXPECT_FALSE(m.state_equals(second)) << c.part;
  }
}

TEST(MachineTest, RefusesMoreCacheLevelsThanItStoresInPlace) {
  MachineConfig cfg = generic_smp();
  while (cfg.cache.size() < kMaxCacheLevels) {
    cfg.cache.push_back(cfg.cache.back());
  }
  EXPECT_NO_THROW(Machine{cfg});
  cfg.cache.push_back(cfg.cache.back());
  EXPECT_THROW(Machine{cfg}, std::length_error);
}

TEST(MachineTest, CostBreakdownAccumulates) {
  CostBreakdown a, b;
  a.compute_s = 1;
  a.cache_s = {0.5};
  b.compute_s = 2;
  b.cache_s = {0.25, 0.75};
  b.memory_s = 3;
  a += b;
  EXPECT_DOUBLE_EQ(a.compute_s, 3.0);
  ASSERT_EQ(a.cache_s.size(), 2u);
  EXPECT_DOUBLE_EQ(a.cache_s[0], 0.75);
  EXPECT_DOUBLE_EQ(a.cache_s[1], 0.75);
  EXPECT_DOUBLE_EQ(a.memory_s, 3.0);
  EXPECT_DOUBLE_EQ(a.total(), 3 + 0.75 + 0.75 + 3);
}

TEST(PresetTest, IbmSpPresetIsWellFormed) {
  const MachineConfig c = ibm_sp_p2sc();
  EXPECT_GT(c.flops_per_second, 0.0);
  ASSERT_EQ(c.cache.size(), 2u);
  EXPECT_LT(c.cache[0].capacity_bytes, c.cache[1].capacity_bytes);
  EXPECT_LT(c.cache[0].seconds_per_byte, c.cache[1].seconds_per_byte);
  EXPECT_LT(c.cache[1].seconds_per_byte, c.memory_seconds_per_byte);
  EXPECT_GT(c.net_latency_s, 0.0);
}

TEST(PresetTest, AblationHelpers) {
  const MachineConfig base = ibm_sp_p2sc();
  EXPECT_EQ(without_l2(base).cache.size(), 1u);
  EXPECT_DOUBLE_EQ(without_contention(base).net_contention_coeff, 0.0);
  EXPECT_DOUBLE_EQ(without_imbalance(base).imbalance_coeff, 0.0);
  // Originals untouched.
  EXPECT_EQ(base.cache.size(), 2u);
}

}  // namespace
}  // namespace kcoup::machine

// Property and fuzz tests for the machine model: invariants that must hold
// for ANY access sequence, checked over randomized workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/cache_model.hpp"
#include "machine/machine.hpp"

namespace kcoup::machine {
namespace {

MachineConfig small_machine() {
  MachineConfig c;
  c.name = "prop";
  c.flops_per_second = 1e9;
  c.cache.push_back(CacheLevel{4 * 1024, 1e-9});
  c.cache.push_back(CacheLevel{64 * 1024, 1e-8});
  c.memory_seconds_per_byte = 1e-7;
  c.ranks = 1;
  return c;
}

struct FuzzWorkload {
  std::vector<std::size_t> region_sizes;
  std::vector<RegionAccess> accesses;  // flat sequence, kernel derived below
};

FuzzWorkload random_workload(std::mt19937& rng, std::size_t regions,
                             std::size_t steps) {
  FuzzWorkload w;
  std::uniform_int_distribution<std::size_t> size_dist(64, 128 * 1024);
  for (std::size_t r = 0; r < regions; ++r) {
    w.region_sizes.push_back(size_dist(rng));
  }
  std::uniform_int_distribution<std::size_t> region_dist(0, regions - 1);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::uniform_real_distribution<double> frac_dist(0.0, 1.0);
  for (std::size_t s = 0; s < steps; ++s) {
    RegionAccess a;
    a.region = static_cast<RegionId>(region_dist(rng));
    a.kind = static_cast<AccessKind>(kind_dist(rng));
    a.bytes = std::uniform_int_distribution<std::size_t>(
        0, 2 * w.region_sizes[a.region])(rng);
    a.fresh_fraction = frac_dist(rng) < 0.4 ? frac_dist(rng) : 0.0;
    a.pipelined_self_reuse = frac_dist(rng) < 0.15;
    w.accesses.push_back(a);
  }
  return w;
}

std::size_t total_bytes(const CacheModel::AccessCost& c) {
  std::size_t t = c.memory_bytes;
  for (std::size_t b : c.level_bytes) t += b;
  return t;
}

class CacheFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheFuzzTest, EveryByteIsPricedExactlyOnce) {
  std::mt19937 rng(GetParam());
  const MachineConfig cfg = small_machine();
  CacheModel cache(cfg);
  const FuzzWorkload w = random_workload(rng, 6, 300);
  for (std::size_t r = 0; r < w.region_sizes.size(); ++r) {
    (void)cache.register_region("r" + std::to_string(r), w.region_sizes[r]);
  }
  std::size_t footprint = 0;
  std::uint64_t kernel = 0, prev = machine::kInvalidKernel;
  for (std::size_t i = 0; i < w.accesses.size(); ++i) {
    const RegionAccess& a = w.accesses[i];
    const auto cost = cache.access(static_cast<KernelId>(kernel),
                                   static_cast<KernelId>(prev), a, footprint,
                                   8);
    // Conservation: bytes served across all levels equal bytes accessed.
    EXPECT_EQ(total_bytes(cost), a.bytes);
    footprint += cache.effective_footprint(a);
    if (i % 7 == 6) {  // end an invocation every few accesses
      cache.end_invocation(static_cast<KernelId>(kernel), footprint);
      prev = kernel;
      kernel = (kernel + 1) % 4;
      footprint = 0;
    }
  }
}

TEST_P(CacheFuzzTest, DeterministicReplay) {
  const MachineConfig cfg = small_machine();
  const FuzzWorkload w = [&] {
    std::mt19937 rng(GetParam() + 1000);
    return random_workload(rng, 5, 200);
  }();
  auto run_once = [&] {
    CacheModel cache(cfg);
    for (std::size_t r = 0; r < w.region_sizes.size(); ++r) {
      (void)cache.register_region("r", w.region_sizes[r]);
    }
    std::vector<std::size_t> trace;
    std::size_t fp = 0;
    for (const RegionAccess& a : w.accesses) {
      const auto c = cache.access(1, 0, a, fp, 4);
      trace.push_back(c.memory_bytes);
      for (std::size_t b : c.level_bytes) trace.push_back(b);
      fp += cache.effective_footprint(a);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(CacheFuzzTest, BiggerCachesNeverCostMore) {
  // Monotonicity: enlarging every cache level can only move traffic to
  // faster levels, never slower ones.
  const FuzzWorkload w = [&] {
    std::mt19937 rng(GetParam() + 2000);
    return random_workload(rng, 5, 200);
  }();
  auto total_cost = [&](std::size_t scale) {
    MachineConfig cfg = small_machine();
    for (auto& level : cfg.cache) level.capacity_bytes *= scale;
    Machine m(cfg);
    for (std::size_t r = 0; r < w.region_sizes.size(); ++r) {
      (void)m.register_region("r", w.region_sizes[r]);
    }
    double t = 0.0;
    WorkProfile p;
    p.kernel = 0;
    p.pipeline_stages = 4;
    for (std::size_t i = 0; i < w.accesses.size(); ++i) {
      p.accesses.push_back(w.accesses[i]);
      if (i % 5 == 4) {
        t += m.execute_seconds(p);
        p.accesses.clear();
        p.kernel = (p.kernel + 1) % 3;
      }
    }
    return t;
  };
  const double base = total_cost(1);
  const double doubled = total_cost(2);
  const double huge = total_cost(64);
  EXPECT_LE(doubled, base * (1.0 + 1e-12));
  EXPECT_LE(huge, doubled * (1.0 + 1e-12));
}

TEST_P(CacheFuzzTest, ResetRestoresInitialBehaviour) {
  const FuzzWorkload w = [&] {
    std::mt19937 rng(GetParam() + 3000);
    return random_workload(rng, 4, 120);
  }();
  const MachineConfig cfg = small_machine();
  Machine m(cfg);
  for (std::size_t r = 0; r < w.region_sizes.size(); ++r) {
    (void)m.register_region("r", w.region_sizes[r]);
  }
  WorkProfile p;
  p.kernel = 2;
  p.pipeline_stages = 4;
  p.accesses = w.accesses;
  const double first = m.execute_seconds(p);
  (void)m.execute_seconds(p);
  m.reset_state();
  EXPECT_DOUBLE_EQ(m.execute_seconds(p), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Differential pin against the list-based reference ---------------------
//
// The cache model used to keep its LRU stack as a std::list indexed by an
// unordered_map, and CostBreakdown::cache_s was a std::vector.  That
// algorithm is kept here as the reference: the flat stack and the inline
// per-level storage must price every access bit for bit like it.

namespace reference {

struct CostBreakdown {
  double compute_s = 0.0;
  std::vector<double> cache_s;
  double memory_s = 0.0;
  double comm_s = 0.0;
  double sync_s = 0.0;

  [[nodiscard]] double total() const {
    double t = compute_s + memory_s + comm_s + sync_s;
    for (double c : cache_s) t += c;
    return t;
  }
};

class CacheModel {
 public:
  explicit CacheModel(const MachineConfig* config) : config_(config) {}

  void register_region(std::size_t bytes) {
    region_bytes_.push_back(bytes);
    last_toucher_.push_back(kInvalidKernel);
    producer_footprint_.push_back(0);
  }

  struct AccessCost {
    std::vector<std::size_t> level_bytes;
    std::size_t memory_bytes = 0;
  };

  AccessCost access(KernelId self, KernelId prev_kernel, const RegionAccess& a,
                    std::size_t footprint_so_far,
                    std::size_t pipeline_stages) {
    const std::size_t nlevels = config_->cache.size();
    AccessCost cost;
    cost.level_bytes.assign(nlevels, 0);
    if (a.bytes == 0) {
      touched_this_invocation_.push_back(a.region);
      return cost;
    }
    const std::size_t footprint = effective_footprint(a);

    auto charge = [&](std::size_t level, std::size_t bytes) {
      if (level < nlevels) {
        cost.level_bytes[level] += bytes;
      } else {
        cost.memory_bytes += bytes;
      }
    };

    if (a.kind == AccessKind::kWrite) {
      charge(level_for_distance(footprint), a.bytes);
    } else if (a.pipelined_self_reuse) {
      charge(level_for_distance(2 * footprint / pipeline_stages), a.bytes);
    } else {
      std::size_t fresh_bytes = 0;
      if (a.fresh_fraction > 0.0 && prev_kernel != kInvalidKernel &&
          prev_kernel != self && last_toucher_[a.region] == prev_kernel) {
        fresh_bytes = static_cast<std::size_t>(
            static_cast<double>(a.bytes) * std::min(a.fresh_fraction, 1.0));
        const std::size_t window =
            (producer_footprint_[a.region] + footprint_so_far + footprint) /
            pipeline_stages;
        charge(level_for_distance(window), fresh_bytes);
      }
      const std::size_t normal_bytes = a.bytes - fresh_bytes;
      if (normal_bytes > 0) {
        const std::size_t d_above = stack_distance(a.region);
        if (d_above == std::numeric_limits<std::size_t>::max()) {
          cost.memory_bytes += normal_bytes;
        } else {
          charge(level_for_distance(d_above + footprint), normal_bytes);
        }
      }
    }

    touch(a.region, footprint);
    touched_this_invocation_.push_back(a.region);
    return cost;
  }

  void end_invocation(KernelId k, std::size_t invocation_footprint) {
    for (RegionId r : touched_this_invocation_) {
      last_toucher_[r] = k;
      producer_footprint_[r] = invocation_footprint;
    }
    touched_this_invocation_.clear();
  }

  void reset() {
    stack_.clear();
    in_stack_.clear();
    touched_this_invocation_.clear();
    std::fill(last_toucher_.begin(), last_toucher_.end(), kInvalidKernel);
    std::fill(producer_footprint_.begin(), producer_footprint_.end(),
              std::size_t{0});
  }

  [[nodiscard]] std::size_t effective_footprint(const RegionAccess& a) const {
    return std::min(a.bytes, region_bytes_.at(a.region));
  }

  [[nodiscard]] std::size_t stack_distance(RegionId r) const {
    auto it = in_stack_.find(r);
    if (it == in_stack_.end()) return std::numeric_limits<std::size_t>::max();
    std::size_t d = 0;
    for (auto e = stack_.begin(); e != it->second; ++e) d += e->footprint;
    return d;
  }

  [[nodiscard]] KernelId last_toucher(RegionId r) const {
    return last_toucher_.at(r);
  }

 private:
  struct StackEntry {
    RegionId region = kInvalidRegion;
    std::size_t footprint = 0;
  };

  [[nodiscard]] std::size_t level_for_distance(std::size_t distance) const {
    const auto& levels = config_->cache;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (distance <= levels[i].capacity_bytes) return i;
    }
    return levels.size();
  }

  void touch(RegionId r, std::size_t footprint) {
    auto it = in_stack_.find(r);
    if (it != in_stack_.end()) stack_.erase(it->second);
    stack_.push_front(StackEntry{r, footprint});
    in_stack_[r] = stack_.begin();
  }

  const MachineConfig* config_;
  std::vector<std::size_t> region_bytes_;
  std::list<StackEntry> stack_;
  std::unordered_map<RegionId, std::list<StackEntry>::iterator> in_stack_;
  std::vector<KernelId> last_toucher_;
  std::vector<std::size_t> producer_footprint_;
  std::vector<RegionId> touched_this_invocation_;
};

double log2p(int ranks) {
  return ranks > 1 ? std::log2(static_cast<double>(ranks)) : 0.0;
}

/// Machine::execute over the reference cache model.  Not copyable: the
/// cache model points at config_.
class Machine {
 public:
  explicit Machine(MachineConfig config)
      : config_(std::move(config)), cache_(&config_) {}
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  void register_region(std::size_t bytes) { cache_.register_region(bytes); }

  CostBreakdown execute(const WorkProfile& profile) {
    CostBreakdown cost;
    cost.cache_s.assign(config_.cache.size(), 0.0);
    cost.compute_s = profile.flops / config_.flops_per_second;

    std::size_t footprint_so_far = 0;
    for (const RegionAccess& a : profile.accesses) {
      const CacheModel::AccessCost ac =
          cache_.access(profile.kernel, prev_kernel_, a, footprint_so_far,
                        profile.pipeline_stages);
      for (std::size_t i = 0; i < ac.level_bytes.size(); ++i) {
        cost.cache_s[i] += static_cast<double>(ac.level_bytes[i]) *
                           config_.cache[i].seconds_per_byte;
      }
      cost.memory_s += static_cast<double>(ac.memory_bytes) *
                       config_.memory_seconds_per_byte;
      footprint_so_far += cache_.effective_footprint(a);
    }
    cache_.end_invocation(profile.kernel, footprint_so_far);

    const double contention =
        1.0 + config_.net_contention_coeff * log2p(config_.ranks);
    double latency_bound_s = 0.0;
    for (const MessageOp& m : profile.messages) {
      const double n = static_cast<double>(m.count);
      latency_bound_s += n * config_.net_latency_s;
      cost.comm_s += n * (config_.net_latency_s +
                          static_cast<double>(m.bytes_each) *
                              config_.net_seconds_per_byte * contention);
    }

    if (profile.synchronizes && config_.ranks > 1) {
      const double tree_depth =
          std::ceil(std::log2(static_cast<double>(config_.ranks)));
      cost.sync_s += config_.sync_latency_s * tree_depth;
      const double corr =
          machine::Machine::skew_correlation(prev_kernel_, profile.kernel);
      const double scale = (1.0 - 1.0 / static_cast<double>(config_.ranks)) *
                           log2p(config_.ranks);
      cost.sync_s += (1.0 - corr) * config_.imbalance_coeff * scale *
                     profile.imbalance_weight *
                     (latency_bound_s + config_.sync_latency_s * tree_depth);
    }

    prev_kernel_ = profile.kernel;
    return cost;
  }

  void reset_state() {
    cache_.reset();
    prev_kernel_ = kInvalidKernel;
  }

  [[nodiscard]] const CacheModel& cache() const { return cache_; }

 private:
  MachineConfig config_;
  CacheModel cache_;
  KernelId prev_kernel_ = kInvalidKernel;
};

}  // namespace reference

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A random invocation over `regions` regions: every access kind,
/// zero-byte accesses, fresh fractions up to 1.25 and pipelined self-reuse.
WorkProfile random_invocation(std::mt19937_64& rng,
                              const std::vector<std::size_t>& regions) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto below = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  WorkProfile p;
  p.kernel = static_cast<KernelId>(below(6));
  p.flops = unit(rng) < 0.8 ? std::ldexp(unit(rng), 30) : 0.0;
  p.pipeline_stages = 1 + below(8);
  const std::size_t accesses = below(9);
  for (std::size_t i = 0; i < accesses; ++i) {
    RegionAccess a;
    a.region = static_cast<RegionId>(below(regions.size()));
    a.kind = static_cast<AccessKind>(below(3));
    a.bytes = unit(rng) < 0.1 ? 0 : below(3 * regions[a.region] + 1);
    a.fresh_fraction = unit(rng) < 0.5 ? 1.25 * unit(rng) : 0.0;
    a.pipelined_self_reuse = unit(rng) < 0.15;
    p.accesses.push_back(a);
  }
  for (std::size_t i = below(3); i > 0; --i) {
    p.messages.push_back(MessageOp{below(64), below(1 << 20)});
  }
  p.synchronizes = unit(rng) < 0.5;
  p.imbalance_weight = unit(rng);
  return p;
}

TEST(CacheReferenceTest, MachineMatchesListReferenceBitForBit) {
  std::mt19937_64 rng(20021);
  const int rank_choices[] = {1, 2, 4, 9, 16, 64};
  std::size_t invocations = 0;
  for (int trace = 0; trace < 200; ++trace) {
    MachineConfig cfg = trace % 2 == 0 ? ibm_sp_p2sc() : generic_smp();
    cfg.ranks = rank_choices[rng() % std::size(rank_choices)];
    Machine m(cfg);
    reference::Machine ref(cfg);
    // 1-24 regions, log-uniform from 64 B to 64 MiB: every cache level and
    // main memory is reachable on both presets.
    std::vector<std::size_t> regions(1 + rng() % 24);
    for (std::size_t& bytes : regions) {
      const double log2_bytes =
          6.0 + 20.0 * static_cast<double>(rng() % 1000) / 1000.0;
      bytes = static_cast<std::size_t>(std::exp2(log2_bytes));
      (void)m.register_region("r", bytes);
      ref.register_region(bytes);
    }
    for (int step = 0; step < 300; ++step, ++invocations) {
      if (rng() % 40 == 0) {
        m.reset_state();
        ref.reset_state();
      }
      const WorkProfile p = random_invocation(rng, regions);
      const CostBreakdown got = m.execute(p);
      const reference::CostBreakdown want = ref.execute(p);
      ASSERT_TRUE(same_bits(got.compute_s, want.compute_s));
      ASSERT_EQ(got.cache_s.size(), want.cache_s.size());
      for (std::size_t i = 0; i < want.cache_s.size(); ++i) {
        ASSERT_TRUE(same_bits(got.cache_s[i], want.cache_s[i]))
            << "trace " << trace << " step " << step << " level " << i;
      }
      ASSERT_TRUE(same_bits(got.memory_s, want.memory_s))
          << "trace " << trace << " step " << step;
      ASSERT_TRUE(same_bits(got.comm_s, want.comm_s));
      ASSERT_TRUE(same_bits(got.sync_s, want.sync_s));
      ASSERT_TRUE(same_bits(got.total(), want.total()));
      for (RegionId r = 0; r < regions.size(); ++r) {
        ASSERT_EQ(m.cache().stack_distance(r), ref.cache().stack_distance(r))
            << "trace " << trace << " step " << step << " region " << r;
        ASSERT_EQ(m.cache().last_toucher(r), ref.cache().last_toucher(r));
      }
    }
  }
  EXPECT_EQ(invocations, 200u * 300u);
}

TEST(MachinePropertyTest, CostsScaleMonotonicallyWithWork) {
  Machine m(small_machine());
  const RegionId r = m.register_region("a", 1 << 20);
  auto cost_for = [&](double flops, std::size_t bytes) {
    m.reset_state();
    WorkProfile p;
    p.kernel = 0;
    p.flops = flops;
    p.accesses = {RegionAccess{r, AccessKind::kRead, bytes}};
    return m.execute_seconds(p);
  };
  EXPECT_LT(cost_for(1e6, 1000), cost_for(2e6, 1000));
  EXPECT_LT(cost_for(1e6, 1000), cost_for(1e6, 2000));
}

TEST(MachinePropertyTest, ContentionGrowsWithRanks) {
  auto comm_cost = [&](int ranks) {
    MachineConfig cfg = small_machine();
    cfg.net_latency_s = 1e-6;
    cfg.net_seconds_per_byte = 1e-9;
    cfg.net_contention_coeff = 0.3;
    cfg.ranks = ranks;
    Machine m(cfg);
    WorkProfile p;
    p.kernel = 0;
    p.messages = {MessageOp{4, 100000}};
    return m.execute(p).comm_s;
  };
  EXPECT_LT(comm_cost(1), comm_cost(4));
  EXPECT_LT(comm_cost(4), comm_cost(16));
}

TEST(MachinePropertyTest, UnitHashIsDeterministicAndBounded) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double v = Machine::unit_hash(k);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    EXPECT_EQ(v, Machine::unit_hash(k));
  }
  // Not constant.
  EXPECT_NE(Machine::unit_hash(1), Machine::unit_hash(2));
}

}  // namespace
}  // namespace kcoup::machine

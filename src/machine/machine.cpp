#include "machine/machine.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace kcoup::machine {
namespace {

/// 64-bit mix (splitmix64 finaliser); used to derive deterministic
/// pseudo-random skew correlations from kernel-id pairs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double log2p(int ranks) {
  return ranks > 1 ? std::log2(static_cast<double>(ranks)) : 0.0;
}

}  // namespace

CostBreakdown& CostBreakdown::operator+=(const CostBreakdown& o) {
  compute_s += o.compute_s;
  memory_s += o.memory_s;
  comm_s += o.comm_s;
  sync_s += o.sync_s;
  if (cache_s.size() < o.cache_s.size()) cache_s.resize(o.cache_s.size());
  for (std::size_t i = 0; i < o.cache_s.size(); ++i) cache_s[i] += o.cache_s[i];
  return *this;
}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      cache_(config_),
      contention_(1.0 + config_.net_contention_coeff * log2p(config_.ranks)),
      tree_depth_(std::ceil(std::log2(static_cast<double>(config_.ranks)))),
      skew_scale_((1.0 - 1.0 / static_cast<double>(config_.ranks)) *
                  log2p(config_.ranks)) {
  assert(config_.flops_per_second > 0.0);
  assert(config_.ranks >= 1);
}

double Machine::unit_hash(std::uint64_t key) {
  return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

double Machine::skew_correlation(KernelId a, KernelId b) {
  if (a == b) return 1.0;
  if (a == kInvalidKernel || b == kInvalidKernel) return 0.0;
  const KernelId lo = a < b ? a : b;
  const KernelId hi = a < b ? b : a;
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(lo) << 32) | hi);
  // Distinct kernels rarely share a skew pattern: uniform in [0, 0.35).
  return 0.35 * static_cast<double>(h >> 11) * 0x1.0p-53;
}

CostBreakdown Machine::execute(const WorkProfile& profile) {
  CostBreakdown cost;
  cost.cache_s.resize(config_.cache.size());

  // --- Compute. --------------------------------------------------------
  cost.compute_s = profile.flops / config_.flops_per_second;

  // --- Memory hierarchy. -------------------------------------------------
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

  // --- Communication. ------------------------------------------------------
  double latency_bound_s = 0.0;  // per-message latency; drives imbalance
  for (const MessageOp& m : profile.messages) {
    const double n = static_cast<double>(m.count);
    latency_bound_s += n * config_.net_latency_s;
    cost.comm_s += n * (config_.net_latency_s +
                        static_cast<double>(m.bytes_each) *
                            config_.net_seconds_per_byte * contention_);
  }

  // --- Synchronisation & load imbalance. -----------------------------------
  if (profile.synchronizes && config_.ranks > 1) {
    cost.sync_s += config_.sync_latency_s * tree_depth_;

    const double corr = skew_correlation(prev_kernel_, profile.kernel);
    cost.sync_s += (1.0 - corr) * config_.imbalance_coeff * skew_scale_ *
                   profile.imbalance_weight *
                   (latency_bound_s + config_.sync_latency_s * tree_depth_);
  }

  prev_kernel_ = profile.kernel;
  return cost;
}

void Machine::reset_state() {
  cache_.reset();
  prev_kernel_ = kInvalidKernel;
}

}  // namespace kcoup::machine

#include "machine/cache_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace kcoup::machine {

CacheModel::CacheModel(const MachineConfig& config) {
  capacities_.resize(config.cache.size());
  for (std::size_t i = 0; i < config.cache.size(); ++i) {
    capacities_[i] = config.cache[i].capacity_bytes;
  }
}

RegionId CacheModel::register_region(std::string name, std::size_t bytes) {
  const auto id = static_cast<RegionId>(regions_.size());
  regions_.push_back(RegionInfo{std::move(name), bytes});
  last_toucher_.push_back(kInvalidKernel);
  producer_footprint_.push_back(0);
  stack_.reserve(regions_.size());  // touches then never grow the stack
  return id;
}

std::size_t CacheModel::effective_footprint(const RegionAccess& a) const {
  return std::min(a.bytes, regions_.at(a.region).bytes);
}

std::size_t CacheModel::level_for_distance(std::size_t distance) const {
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (distance <= capacities_[i]) return i;
  }
  return capacities_.size();  // main memory
}

std::size_t CacheModel::stack_distance(RegionId r) const {
  std::size_t d = 0;
  for (auto e = stack_.rbegin(); e != stack_.rend(); ++e) {
    if (e->region == r) return d;
    d += e->footprint;
  }
  return std::numeric_limits<std::size_t>::max();
}

KernelId CacheModel::last_toucher(RegionId r) const {
  return last_toucher_.at(r);
}

void CacheModel::touch(RegionId r, std::size_t footprint) {
  const auto it =
      std::find_if(stack_.begin(), stack_.end(),
                   [r](const StackEntry& e) { return e.region == r; });
  if (it != stack_.end()) stack_.erase(it);
  stack_.push_back(StackEntry{r, footprint});
}

CacheModel::AccessCost CacheModel::access(KernelId self, KernelId prev_kernel,
                                          const RegionAccess& a,
                                          std::size_t footprint_so_far,
                                          std::size_t pipeline_stages) {
  assert(a.region < regions_.size());
  assert(pipeline_stages >= 1);
  const std::size_t nlevels = capacities_.size();
  AccessCost cost;
  cost.level_bytes.resize(nlevels);
  if (a.bytes == 0) {
    // Zero-byte accesses still record data-flow (e.g. a kernel invocation
    // that degenerated on this rank) but generate no traffic.
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
    // Streaming-store rule: a full overwrite is priced by the level its
    // footprint lands in, with no read-for-ownership.
    charge(level_for_distance(footprint), a.bytes);
  } else if (a.pipelined_self_reuse) {
    // Reverse-order read-back of data produced earlier in this invocation:
    // the effective reuse distance is one pipeline slice (producer tail and
    // consumer head meet), not the whole footprint.
    charge(level_for_distance(2 * footprint / pipeline_stages), a.bytes);
  } else {
    // --- Producer-fresh portion (pipelined producer->consumer reuse). ----
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

    // --- Self-reuse portion (cyclic-scan rule). ----------------------------
    const std::size_t normal_bytes = a.bytes - fresh_bytes;
    if (normal_bytes > 0) {
      const std::size_t d_above = stack_distance(a.region);
      if (d_above == std::numeric_limits<std::size_t>::max()) {
        cost.memory_bytes += normal_bytes;  // compulsory miss: never touched
      } else {
        // Re-traversal hits only if intervening traffic plus the region's
        // own footprint fit; below the threshold everything hits, above it
        // the scan gets nothing (LRU cyclic-scan property).
        charge(level_for_distance(d_above + footprint), normal_bytes);
      }
    }
  }

  touch(a.region, footprint);
  touched_this_invocation_.push_back(a.region);
  return cost;
}

void CacheModel::end_invocation(KernelId k, std::size_t invocation_footprint) {
  for (RegionId r : touched_this_invocation_) {
    last_toucher_[r] = k;
    producer_footprint_[r] = invocation_footprint;
  }
  touched_this_invocation_.clear();
}

void CacheModel::reset() {
  stack_.clear();
  touched_this_invocation_.clear();
  std::fill(last_toucher_.begin(), last_toucher_.end(), kInvalidKernel);
  std::fill(producer_footprint_.begin(), producer_footprint_.end(),
            std::size_t{0});
}

}  // namespace kcoup::machine

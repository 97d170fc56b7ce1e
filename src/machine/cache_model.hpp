#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "machine/config.hpp"
#include "machine/work_profile.hpp"

namespace kcoup::machine {

/// Region-granular reuse-distance cache model.
///
/// The model tracks an LRU stack of *regions* (application arrays) with the
/// byte footprint each was last touched with.  An access distinguishes
/// *traffic* (bytes streamed through the level, which is what gets priced)
/// from *footprint* (unique bytes, capped at the region's size, which is what
/// occupies cache and determines reuse distances) — a 38 KB line buffer that
/// streams 17 MB of traffic stays hot in L1 and evicts only 38 KB of other
/// data.  Pricing follows stack-distance theory with two rules:
///
/// 1. **Self-reuse (cyclic-scan rule).**  Re-traversing a region whose
///    footprint is B after D bytes of intervening unique traffic hits in the
///    smallest cache level whose capacity is at least D + B, and misses that
///    level entirely otherwise.  The sharp threshold is the exact behaviour
///    of LRU under cyclic re-traversal (a scan longer than capacity gets zero
///    reuse), and it is what produces the paper's "finite number of coupling
///    transitions" as problem size scales through the hierarchy (§4.1.4).
///
/// 2. **Producer-fresh reuse (pipelined rule).**  When a kernel reads data
///    that the *immediately preceding* kernel invocation streamed through
///    the cache (wrote or read), the reuse distance is the per-pipeline-
///    stage slice of the footprint between the producing touch and the
///    consuming read, not the whole region: the NPB kernels are
///    plane-structured, so the consumer revisits a plane soon after the
///    producer finished with it.  This is the constructive-coupling
///    mechanism ("the reuse of data between kernels", paper §1 and §4.1),
///    and it is unavailable to a kernel looping in isolation — which is
///    exactly why C_S dips below 1.
///
/// 3. **Streaming-store rule.**  A pure-write access is priced by the level
///    its footprint lands in, independent of staleness (no read-for-
///    ownership for full-region overwrites).  Scratch arrays therefore do
///    not manufacture phantom coupling between kernels, while still
///    occupying stack space and evicting other data.
///
/// The model is deterministic and independent of host behaviour.  It keeps
/// the cache capacities by value and refers to nothing outside itself, so it
/// may be copied or moved.  Its containers keep their capacity, so once the
/// regions have been touched, pricing allocates nothing.
class CacheModel {
 public:
  /// Takes the config's cache capacities.  Throws std::length_error when
  /// the config declares more than kMaxCacheLevels levels.
  explicit CacheModel(const MachineConfig& config);

  /// Register an application array of `bytes` total size.
  RegionId register_region(std::string name, std::size_t bytes);

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }
  [[nodiscard]] const std::string& region_name(RegionId r) const {
    return regions_.at(r).name;
  }
  [[nodiscard]] std::size_t region_bytes(RegionId r) const {
    return regions_.at(r).bytes;
  }

  /// Bytes served from each cache level (index into config cache levels)
  /// plus main memory for one access.
  struct AccessCost {
    PerLevel<std::size_t> level_bytes;
    std::size_t memory_bytes = 0;
  };

  /// Price one access and update the stack.  `prev_kernel` is the kernel
  /// that executed immediately before the current invocation (freshness only
  /// applies to data the immediate predecessor touched); `footprint_so_far`
  /// is the unique traffic already generated earlier in the same invocation;
  /// `pipeline_stages` comes from the invoking kernel's WorkProfile.
  AccessCost access(KernelId self, KernelId prev_kernel, const RegionAccess& a,
                    std::size_t footprint_so_far, std::size_t pipeline_stages);

  /// Finish an invocation of kernel `k` whose accesses had a combined unique
  /// footprint of `invocation_footprint` bytes: stamps last-toucher /
  /// producer-footprint metadata for the regions the invocation accessed.
  void end_invocation(KernelId k, std::size_t invocation_footprint);

  /// Forget all residency and data-flow history (cold machine).
  void reset();

  /// Unique footprint of the access: traffic capped at the region size.
  [[nodiscard]] std::size_t effective_footprint(const RegionAccess& a) const;

  /// Introspection for tests: reuse distance (bytes of more recently touched
  /// regions above `r` in the stack), or SIZE_MAX when never touched.
  [[nodiscard]] std::size_t stack_distance(RegionId r) const;

  /// Introspection for tests: which kernel most recently touched `r`.
  [[nodiscard]] KernelId last_toucher(RegionId r) const;

  struct StackEntry {
    RegionId region = kInvalidRegion;
    std::size_t footprint = 0;
    bool operator==(const StackEntry&) const = default;
  };
  /// Everything access() reads besides the capacities and the registered
  /// regions: the LRU stack and each region's data-flow stamps.
  struct State {
    std::vector<StackEntry> stack;
    std::vector<KernelId> last_toucher;
    std::vector<std::size_t> producer_footprint;
  };
  /// Copy the state into `into`, reusing its capacity: once `into` has held
  /// a snapshot of this model, saving allocates nothing.
  void save_state(State& into) const;
  /// True when the model is in exactly the state `s` holds.  Only valid
  /// between invocations (end_invocation() has run).
  [[nodiscard]] bool state_equals(const State& s) const;

 private:
  struct RegionInfo {
    std::string name;
    std::size_t bytes = 0;
  };

  /// Smallest cache level whose capacity covers `distance` bytes, or the
  /// level count, meaning main memory.
  [[nodiscard]] std::size_t level_for_distance(std::size_t distance) const;

  void touch(RegionId r, std::size_t footprint);

  PerLevel<std::size_t> capacities_;
  std::vector<RegionInfo> regions_;
  /// The LRU stack, back = most recently touched; each touched region
  /// appears once.
  std::vector<StackEntry> stack_;
  std::vector<KernelId> last_toucher_;
  std::vector<std::size_t> producer_footprint_;
  std::vector<RegionId> touched_this_invocation_;
};

}  // namespace kcoup::machine

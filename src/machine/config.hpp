#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace kcoup::machine {

/// Most cache levels a MachineConfig may declare (L1 through L4).
inline constexpr std::size_t kMaxCacheLevels = 4;

/// One value per cache level, L1 first: a vector of at most kMaxCacheLevels
/// entries stored in place, so pricing an access or an invocation never
/// allocates.
template <class T>
class PerLevel {
 public:
  PerLevel() = default;
  PerLevel(std::initializer_list<T> values) {
    resize(values.size());
    std::copy(values.begin(), values.end(), values_.begin());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return values_[i]; }
  const T& operator[](std::size_t i) const { return values_[i]; }
  [[nodiscard]] const T* begin() const { return values_.data(); }
  [[nodiscard]] const T* end() const { return values_.data() + size_; }

  /// New entries are value-initialised (zero).  Throws std::length_error
  /// past kMaxCacheLevels.
  void resize(std::size_t levels) {
    if (levels > kMaxCacheLevels) {
      throw std::length_error("machine: " + std::to_string(levels) +
                              " cache levels, at most " +
                              std::to_string(kMaxCacheLevels) +
                              " are supported");
    }
    for (std::size_t i = size_; i < levels; ++i) values_[i] = T{};
    size_ = levels;
  }

 private:
  std::array<T, kMaxCacheLevels> values_{};
  std::size_t size_ = 0;
};

/// One level of the data-cache hierarchy.
struct CacheLevel {
  /// Usable capacity in bytes.
  std::size_t capacity_bytes = 0;
  /// Effective transfer cost for data served from this level, seconds per
  /// byte (latency amortised into a streaming rate).
  double seconds_per_byte = 0.0;
};

/// Parameterised machine description consumed by machine::Machine.
///
/// The default-constructed config is intentionally useless; use one of the
/// presets (ibm_sp_p2sc(), generic_smp(), ...) or build your own.  All times
/// are in seconds, all sizes in bytes.
struct MachineConfig {
  std::string name = "unnamed";

  // --- CPU ---------------------------------------------------------------
  /// Effective (achieved, not peak) floating-point rate of one processor.
  double flops_per_second = 1.0;

  // --- Memory hierarchy ----------------------------------------------------
  /// Cache levels ordered from fastest/smallest (L1) to slowest/largest;
  /// at most kMaxCacheLevels (a Machine refuses more).
  std::vector<CacheLevel> cache;
  /// Cost of data served from main memory, seconds per byte.
  double memory_seconds_per_byte = 0.0;

  // --- Interconnect --------------------------------------------------------
  /// Per-message latency (the alpha of the alpha-beta model).
  double net_latency_s = 0.0;
  /// Per-byte transfer cost (the beta of the alpha-beta model).
  double net_seconds_per_byte = 0.0;
  /// Multiplicative contention growth: effective beta is
  /// net_seconds_per_byte * (1 + net_contention_coeff * log2(P)).
  double net_contention_coeff = 0.0;

  // --- Synchronization / load imbalance -------------------------------------
  /// Latency of one stage of a synchronising operation (barrier tree hop).
  double sync_latency_s = 0.0;
  /// Strength of the load-imbalance penalty paid at a synchronisation point
  /// when the synchronising kernel's skew pattern differs from the pattern
  /// established by the previously synchronising kernel.  See machine.hpp
  /// for the full model description.
  double imbalance_coeff = 0.0;

  /// Number of ranks the model is priced for (set per experiment).
  int ranks = 1;
};

/// Preset approximating one node + switch of the Argonne IBM SP used in the
/// paper (120 MHz P2SC processors, two-level data cache, vulcan-style
/// switch).  Absolute constants are period-plausible, not vendor-exact; the
/// reproduction targets are relative errors and coupling regimes, which
/// depend on the *ratios* encoded here (see DESIGN.md section 2).
[[nodiscard]] MachineConfig ibm_sp_p2sc();

/// A generic modern-ish SMP node; used by examples to show how coupling
/// values move when the memory hierarchy changes.
[[nodiscard]] MachineConfig generic_smp();

/// Ablation helpers: return a copy of `base` with one mechanism removed.
[[nodiscard]] MachineConfig without_l2(MachineConfig base);
[[nodiscard]] MachineConfig without_contention(MachineConfig base);
[[nodiscard]] MachineConfig without_imbalance(MachineConfig base);

}  // namespace kcoup::machine

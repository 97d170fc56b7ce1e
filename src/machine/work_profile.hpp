#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace kcoup::machine {

/// Opaque handle for a registered data region (an array of the application).
using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = std::numeric_limits<RegionId>::max();

/// Opaque identity of a kernel as seen by the machine model.  Kernel ids are
/// chosen by the caller; the machine uses them to track data-flow freshness
/// (which kernel last wrote a region) and synchronisation skew patterns.
using KernelId = std::uint32_t;
inline constexpr KernelId kInvalidKernel = std::numeric_limits<KernelId>::max();

enum class AccessKind : std::uint8_t { kRead, kWrite, kReadWrite };

/// One region access performed by a kernel invocation, in program order.
struct RegionAccess {
  RegionId region = kInvalidRegion;
  AccessKind kind = AccessKind::kRead;
  /// Bytes of the region touched by this invocation.
  std::size_t bytes = 0;
  /// Pipelined-reuse annotation: the fraction of this input that can be
  /// consumed plane-by-plane right behind whichever kernel streamed the
  /// region through the cache immediately beforehand.  When the previous
  /// kernel invocation was the last to touch this region (read or write),
  /// `fresh_fraction` of the bytes are priced with the pipelined
  /// producer->consumer reuse rule instead of the cyclic-scan self-reuse
  /// rule (see CacheModel docs).  A kernel looping in isolation never
  /// qualifies — its own previous invocation is excluded — which is what
  /// makes chains cheaper than the sum of their isolated parts.
  double fresh_fraction = 0.0;
  /// Within-invocation pipelined re-read: the kernel reads this region back
  /// in the reverse of the order it just produced it (e.g. the backward
  /// sweep of a line solver walking lines last-written-first), so the reuse
  /// distance is the per-stage slice of the footprint rather than the whole
  /// region.  Only meaningful for reads of regions written earlier in the
  /// same invocation.
  bool pipelined_self_reuse = false;
};

/// One batch of point-to-point messages issued by a kernel invocation.
struct MessageOp {
  /// Number of messages sent by this rank during the invocation.
  std::size_t count = 0;
  /// Payload size of each message in bytes.
  std::size_t bytes_each = 0;
};

/// Structural description of one invocation of one kernel on one rank.
///
/// WorkProfiles are produced by the per-application work models
/// (npb/common/adi_model.cpp for BT and SP, npb/lu/lu_model.cpp for LU)
/// from the code structure of the numeric kernels: flop counts, the arrays
/// each kernel streams and in which order, the data-flow edges between
/// adjacent kernels, and the communication pattern.  They contain no
/// timing — the Machine prices them.
struct WorkProfile {
  std::string label;
  KernelId kernel = kInvalidKernel;

  /// Floating-point operations executed by this rank.
  double flops = 0.0;

  /// Region accesses in program order (inputs typically precede outputs).
  std::vector<RegionAccess> accesses;

  /// Point-to-point traffic issued by this rank.
  std::vector<MessageOp> messages;

  /// True when the kernel ends with rank synchronisation (halo exchange
  /// completion, wavefront hand-off, collective).  Synchronising kernels pay
  /// the skew-decorrelation penalty.
  bool synchronizes = false;

  /// Fraction of compute subject to load imbalance (0 = perfectly balanced).
  double imbalance_weight = 0.0;

  /// Number of pipeline stages the kernel's traversal is organised in
  /// (NPB kernels are plane-structured: stages ~= number of grid planes).
  /// Governs the reuse distance of producer-fresh data: the consumer reads a
  /// plane soon after the producer wrote it, so the effective reuse distance
  /// is the per-stage slice of traffic, not the whole region.
  std::size_t pipeline_stages = 1;

  /// Total bytes touched (sum over accesses); convenience for reports.
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t s = 0;
    for (const auto& a : accesses) s += a.bytes;
    return s;
  }
};

}  // namespace kcoup::machine

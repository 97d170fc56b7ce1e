#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "npb/common/adi_model.hpp"
#include "npb/common/decomp.hpp"
#include "npb/common/problem.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::npb {

/// Options of the timed parallel path, where each rank sends real-sized
/// simmpi messages and prices its compute on its own machine model.
struct TimedOptions {
  /// Prices each rank's compute and memory; its network parameters drive
  /// simmpi (network()).
  machine::MachineConfig machine;
  /// Per-(rank, kernel, invocation) multiplicative compute jitter amplitude;
  /// this is where load imbalance comes from in the timed path (the
  /// machine's analytic imbalance model is not used here — skew absorption
  /// emerges from real message waiting and barriers in virtual time).
  double jitter = 0.05;

  /// The simmpi network of `machine`.
  [[nodiscard]] simmpi::NetworkParams network() const;
};

/// Refuses a timed study the numeric port of `b` would refuse, so that no
/// rank thread starts for it: n below min_grid_extent(b), a rank count the
/// app's decomposition refuses, or a rank grid with more ranks along an
/// axis than the grid has points, which leaves some rank an empty
/// subdomain.  Throws std::invalid_argument.
void check_timed_grid(Benchmark b, int n, int ranks);

/// The compute side of a timed rank: this rank's own machine model, which
/// prices kernel work on the rank's actual local extents, and the jittered
/// charge of that price to the rank's virtual clock.
class TimedCompute {
 public:
  TimedCompute(const TimedOptions& options, simmpi::Comm& comm);

  [[nodiscard]] machine::Machine& machine() { return machine_; }

  /// Price `profile` and charge it as this rank's next invocation.
  void charge(const machine::WorkProfile& profile);
  /// Charge already-priced `seconds`, scaled by 1 + jitter * h where h is
  /// the unit hash of (rank, kernel, salt).
  void charge(double seconds, machine::KernelId kernel, std::uint64_t salt);
  /// Number the next invocation (charge(profile) numbers its own).
  std::uint64_t next_invocation() { return invocation_++; }

  /// Cold-start the machine and restart invocation numbering.
  void reset();

 private:
  simmpi::Comm* comm_;
  double jitter_;
  machine::Machine machine_;
  std::uint64_t invocation_ = 0;
};

/// Timing-only ADI rank: executes BT's or SP's exact communication pattern
/// with real-sized simmpi messages and charges machine-model costs for the
/// compute/memory of each kernel on this rank's actual local extents —
/// no field data, so paper-scale classes run in milliseconds.
///
/// Unlike the representative-rank model, every rank prices its own
/// subdomain, the y/z sweeps really serialise rank-by-rank (pipeline fill
/// is emergent), and load imbalance comes from per-rank jitter meeting real
/// synchronisation — a second, independent route to the paper's coupling
/// measurements.  Its kernel methods match BtRank's and SpRank's, so the
/// applications' kernel tables drive it.
class TimedAdiRank {
 public:
  TimedAdiRank(int n, const AdiWork& work, const TimedOptions& options,
               simmpi::Comm& comm);

  void initialize();
  void copy_faces();
  void txinvr();  ///< only for an application with Txinvr
  void x_solve();
  void y_solve();
  void z_solve();
  void add();
  void final_verify();

  void reset();

 private:
  /// Split a sweep profile into its forward (eliminate) and backward
  /// (substitute) halves for pipeline-faithful charging.
  static std::pair<machine::WorkProfile, machine::WorkProfile> split_sweep(
      const machine::WorkProfile& sweep);
  void sweep(const machine::WorkProfile& fwd, const machine::WorkProfile& bwd,
             int prev, int next, int tag_fwd, int tag_bwd,
             std::size_t fwd_doubles, std::size_t bwd_doubles);

  AdiWork work_;
  simmpi::Comm* comm_;
  SquareDecomp decomp_;
  SquareDecomp::RankLayout layout_;
  int nx_, ny_, nz_;

  TimedCompute compute_;
  AdiKernelProfiles profiles_;
  machine::WorkProfile y_fwd_, y_bwd_, z_fwd_, z_bwd_;
  std::size_t ylines_ = 0, zlines_ = 0;

  std::vector<double> yface_, zface_, pipe_buf_;
};

}  // namespace kcoup::npb

#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "machine/config.hpp"
#include "machine/machine.hpp"
#include "npb/common/modeled_app.hpp"
#include "npb/common/problem.hpp"

namespace kcoup::npb {

/// What BT and SP cost per grid point: the operation and traffic counts of
/// their kernels, derived from the numeric ports (bt_app.cpp, sp_app.cpp).
/// The two differ only in these numbers and in SP's extra pointwise
/// Txinvr kernel between Copy_Faces and the sweeps.
struct AdiWork {
  Benchmark benchmark = Benchmark::kBT;  ///< names the modeled app
  double flops_init_per_point = 0;
  double flops_rhs_per_point = 0;  ///< copy_faces: stencil + coupling
  /// Txinvr, when the application has it (SP).
  std::optional<double> flops_txinvr_per_point;
  double flops_solve_per_point = 0;  ///< per sweep: assembly + elimination
  double flops_add_per_point = 0;
  double flops_final_per_point = 0;
  /// Elimination state per point, kept by the distributed y/z sweeps
  /// between their forward and backward phases.
  std::size_t state_bytes = 0;
  /// Line scratch per point of the rank-local x sweep.
  std::size_t x_state_bytes = 0;
  std::size_t fwd_msg_doubles = 0;  ///< per line, forward pipeline payload
  std::size_t bwd_msg_doubles = 0;  ///< per line, backward pipeline payload
};

/// Compute/traffic-only WorkProfiles of an ADI application's kernels for
/// one rank's local extents (nx, ny, nz), with regions registered on `m`.
/// No messages, synchronisation or imbalance annotations: the
/// representative-rank model (make_modeled_adi) adds the analytic
/// communication model on top, while the timed rank (timed.hpp) performs
/// real simmpi messaging instead.  Kernel ids follow program order.
struct AdiKernelProfiles {
  machine::WorkProfile init, copy_faces;
  std::optional<machine::WorkProfile> txinvr;
  machine::WorkProfile x_solve, y_solve, z_solve, add, final;
};
[[nodiscard]] AdiKernelProfiles adi_kernel_profiles(machine::Machine& m,
                                                    int nx, int ny, int nz,
                                                    const AdiWork& work);

/// The modeled ADI application: its kernels priced on one representative
/// interior rank of `ranks` total.  The main loop is {Copy_Faces, [Txinvr,]
/// X_Solve, Y_Solve, Z_Solve, Add} (§4.1–4.2); Initialization and Final
/// run once.  x lines are rank-local; the y and z solves are distributed
/// pipelined sweeps.
[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_adi(
    const AdiWork& work, int n, int iterations, int ranks,
    machine::MachineConfig config);

}  // namespace kcoup::npb

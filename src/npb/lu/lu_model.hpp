#pragma once

#include <memory>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "machine/machine.hpp"
#include "npb/common/modeled_app.hpp"
#include "npb/common/problem.hpp"
#include "npb/common/timed.hpp"

namespace kcoup::npb::lu {

/// Build the modeled LU application (the paper's ten kernels, §4.3): main
/// loop {Ssor_Iter, Ssor_LT, Ssor_UT, Ssor_RS}; prologue Initialization /
/// Erhs / Ssor_Init; epilogue Error / Pintgr / Final.  The triangular sweeps
/// issue per-z-plane wavefront messages plus the (px + py - 2) pipeline-fill
/// hand-offs, so LU is latency-bound at scale as the paper stresses.
[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_lu(
    ProblemClass cls, int ranks, machine::MachineConfig config);

[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_lu_grid(
    int n, int iterations, int ranks, machine::MachineConfig config);

/// Compute/traffic-only WorkProfiles of the ten LU kernels for one rank's
/// local extents (nx, ny, nz), with regions registered on `m`.  No messages
/// or synchronisation annotations: the representative-rank model adds the
/// analytic communication model on top, while the timed rank performs real
/// simmpi messaging instead.
struct LuKernelProfiles {
  machine::WorkProfile init, erhs, ssor_init, ssor_iter, ssor_lt, ssor_ut,
      ssor_rs, error, pintgr, final;
};
[[nodiscard]] LuKernelProfiles lu_kernel_profiles(machine::Machine& m, int nx,
                                                  int ny, int nz);

/// Run the full parallel coupling study on `ranks` timed LU ranks, which
/// execute the real diagonal-pipelined wavefront — one hand-off per z-plane
/// per sweep — with machine-priced compute per plane slice, so the pipeline
/// fill and LU's small-message latency sensitivity (§4.3) are emergent.
/// Network parameters are taken from options.machine; returns rank 0's
/// result.  Refuses, before any rank starts, a grid check_timed_grid
/// refuses.
[[nodiscard]] coupling::ParallelStudyResult run_lu_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::lu

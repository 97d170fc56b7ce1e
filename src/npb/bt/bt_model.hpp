#pragma once

#include <memory>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "npb/common/adi_model.hpp"
#include "npb/common/modeled_app.hpp"
#include "npb/common/problem.hpp"
#include "npb/common/timed.hpp"

namespace kcoup::npb::bt {

/// BT's work per grid point, counted from the numeric port in bt_app.cpp.
inline constexpr AdiWork kBtWork{
    .benchmark = Benchmark::kBT,
    .flops_init_per_point = 250,
    .flops_rhs_per_point = 135,
    .flops_txinvr_per_point = std::nullopt,
    .flops_solve_per_point = 935,  // block assembly + block Thomas
    .flops_add_per_point = 5,
    .flops_final_per_point = 60,
    .state_bytes = 30 * sizeof(double),    // BlockTriState
    .x_state_bytes = 30 * sizeof(double),  // BlockTriState
    .fwd_msg_doubles = 30,  // one BlockTriState per line
    .bwd_msg_doubles = 5,   // one Vec5 per line
};

/// Build the modeled BT application (the paper's seven kernels pricing their
/// WorkProfiles on one representative interior rank of `ranks` total) for a
/// problem class on a machine configuration.
///
/// The main loop is {Copy_Faces, X_Solve, Y_Solve, Z_Solve, Add} as in §4.1;
/// Initialization and Final run once.  Region sizes, traffic, data-flow
/// edges and message patterns mirror bt_app.cpp: x lines are rank-local, y
/// and z solves are distributed pipelined block-Thomas sweeps.
[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_bt(
    ProblemClass cls, int ranks, machine::MachineConfig config);

/// Convenience overload for explicit grid size / iteration count (used by
/// the coupling-transition sweep bench).
[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_bt_grid(
    int n, int iterations, int ranks, machine::MachineConfig config);

/// Run the full parallel coupling study on `ranks` timed BT ranks (the
/// timed ADI rank with BT's work and kernel table); network parameters are
/// taken from options.machine.  Returns rank 0's result (identical on
/// every rank).  Refuses, before any rank starts, a grid check_timed_grid
/// refuses.
[[nodiscard]] coupling::ParallelStudyResult run_bt_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::bt

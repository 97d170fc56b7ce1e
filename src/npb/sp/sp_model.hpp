#pragma once

#include <memory>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "npb/common/adi_model.hpp"
#include "npb/common/modeled_app.hpp"
#include "npb/common/problem.hpp"
#include "npb/common/timed.hpp"

namespace kcoup::npb::sp {

/// SP's work per grid point, counted from the numeric port in sp_app.cpp.
/// Its sweeps are scalar pentadiagonal (five independent scalar systems
/// per line), so both the per-point flop count and the elimination-state
/// traffic are much smaller than BT's 5x5 block sweeps.
inline constexpr AdiWork kSpWork{
    .benchmark = Benchmark::kSP,
    .flops_init_per_point = 250,
    .flops_rhs_per_point = 135,
    .flops_txinvr_per_point = 55,
    .flops_solve_per_point = 130,
    .flops_add_per_point = 55,  // applies T^-1 (a 5x5 matvec) then adds
    .flops_final_per_point = 60,
    .state_bytes = 5 * 3 * sizeof(double),  // PentaState x 5 components
    .x_state_bytes = 3 * sizeof(double),    // one PentaState
    .fwd_msg_doubles = 30,  // per line: 2 states x 3 x 5 components
    .bwd_msg_doubles = 10,  // per line: 2 values x 5 components
};

/// Build the modeled SP application (the paper's eight kernels, §4.2) for a
/// problem class on a machine configuration.  Main loop: {Copy_Faces,
/// Txinvr, X_Solve, Y_Solve, Z_Solve, Add}.
[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_sp(
    ProblemClass cls, int ranks, machine::MachineConfig config);

[[nodiscard]] std::unique_ptr<ModeledApp> make_modeled_sp_grid(
    int n, int iterations, int ranks, machine::MachineConfig config);

/// Run the full parallel coupling study on `ranks` timed SP ranks (see
/// bt::run_bt_parallel_study).
[[nodiscard]] coupling::ParallelStudyResult run_sp_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::sp

#pragma once

#include <vector>

#include "coupling/parallel_measurement.hpp"
#include "npb/common/adi.hpp"
#include "npb/common/blocktri.hpp"
#include "npb/common/stencil.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::npb::bt {

/// Configuration of the BT port.
///
/// Our BT keeps the paper's seven-kernel decomposition and the ADI
/// block-tridiagonal structure of NPB BT — three sweeps of 5x5
/// block-tridiagonal line solves, one per dimension, between a right-hand-
/// side computation with face exchanges and a solution update — applied to
/// the manufactured coupled elliptic system of npb/common/stencil.hpp
/// instead of the Navier-Stokes RHS (DESIGN.md §2).  The jacobian diagonal
/// blocks depend on the current solution (gamma term), so the per-iteration
/// lhs construction work of the original is preserved.
struct BtConfig {
  int n = 12;           ///< global cubic grid extent
  int iterations = 60;  ///< main-loop iterations
  double tau = 0.4;     ///< pseudo-time step of the ADI iteration
  double gamma = 0.05;  ///< strength of the u-dependent jacobian diagonal
  OperatorSpec op;      ///< the manufactured operator
};

/// Per-rank BT solver: the paper's seven kernels as methods.  The main loop
/// executes copy_faces .. add; initialize runs once before, final_verify
/// once after (paper §4.1).  Kernels 1, 2 and 7 (initialize, copy_faces,
/// final_verify) are the shared ADI ones.
class BtRank : public AdiRank {
 public:
  BtRank(const BtConfig& config, simmpi::Comm& comm);

  // Kernels 3-5: block-tridiagonal line solves updating rhs in place.
  // x is local to every rank; y and z are distributed pipelined solves.
  void x_solve();
  void y_solve();
  void z_solve();
  // Kernel 6: ADD — u += rhs.
  void add();

  [[nodiscard]] const BtConfig& config() const { return config_; }

 private:
  /// Build the block-tridiagonal row for global line position `global_m`
  /// of a line of `global_n` points, with the u-dependent diagonal.
  [[nodiscard]] BlockTriRow make_row(int global_m, int global_n,
                                     const Vec5& u_point, double coeff) const;

  BtConfig config_;

  // Reusable solve scratch (the original's lhs arrays).
  std::vector<BlockTriRow> rows_;
  std::vector<BlockTriState> states_;
  std::vector<Vec5> xline_;
  std::vector<double> msg_fwd_, msg_bwd_;
};

/// BT's kernel table (§4.1): the seven kernels in program order over any
/// rank with BT's kernel methods — BtRank for the host-measured study, the
/// timed ADI rank for the timed one.  The caller sets reset().
template <typename Rank>
[[nodiscard]] coupling::ParallelLoopApp bt_kernels(Rank& rank,
                                                   int iterations) {
  coupling::ParallelLoopApp app;
  app.prologue = {{"Initialization", [&rank] { rank.initialize(); }}};
  app.loop = {
      {"Copy_Faces", [&rank] { rank.copy_faces(); }},
      {"X_Solve", [&rank] { rank.x_solve(); }},
      {"Y_Solve", [&rank] { rank.y_solve(); }},
      {"Z_Solve", [&rank] { rank.z_solve(); }},
      {"Add", [&rank] { rank.add(); }},
  };
  app.epilogue = {{"Final", [&rank] { (void)rank.final_verify(); }}};
  app.iterations = iterations;
  return app;
}

/// Result of one full BT run.
struct BtRunResult {
  double final_error = 0.0;    ///< max |u - u*| after the run
  double initial_residual = 0.0;
  double final_residual = 0.0;
  simmpi::RunResult run;
};

/// Execute the complete benchmark (initialize, iterate, verify) on `ranks`
/// simmpi ranks.
[[nodiscard]] BtRunResult run_bt(const BtConfig& config, int ranks,
                                 const simmpi::NetworkParams& net = {});

/// Host-measured parallel BT: the real numeric BtRank kernels, each charged
/// its thread CPU time (coupling::charge_thread_cpu_time), under the
/// parallel measurement protocol.  Each rank's measured compute meets a
/// controlled virtual network, the third measurement path next to the
/// analytic model and the timed path (bt_model.hpp).
///
/// Host timings are inherently noisy; use this for demonstrations and
/// structural tests, not for regenerating the deterministic paper tables.
[[nodiscard]] coupling::ParallelStudyResult run_bt_measured_study(
    const BtConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::bt

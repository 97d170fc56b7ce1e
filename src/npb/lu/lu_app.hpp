#pragma once

#include <vector>

#include "coupling/parallel_measurement.hpp"
#include "npb/common/block5.hpp"
#include "npb/common/decomp.hpp"
#include "npb/common/field.hpp"
#include "npb/common/problem.hpp"
#include "npb/common/stencil.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::npb::lu {

/// Configuration of the LU port.
///
/// LU keeps the paper's ten-kernel decomposition (§4.3): an SSOR iteration
/// whose lower/upper triangular solves sweep the grid plane by plane with
/// 5x5 jacobian blocks, on the paper's 2-D pencil partitioning (x and y
/// halved alternately, z intact).  Partition-boundary data moves in many
/// small per-plane messages — the diagonal pipelining that makes LU "very
/// sensitive to the small-message communication performance".
struct LuConfig {
  int n = 12;
  int iterations = 50;
  double tau = 0.4;    ///< pseudo-time step
  double omega = 1.0;  ///< SSOR relaxation factor
  double gamma = 0.05; ///< u-dependent jacobian diagonal strength
  OperatorSpec op;
};

/// Per-rank LU solver.  Main loop: ssor_iter, ssor_lt, ssor_ut, ssor_rs;
/// prologue initialize/erhs/ssor_init; epilogue error/pintgr/final.
class LuRank {
 public:
  LuRank(const LuConfig& config, simmpi::Comm& comm);

  void initialize();  // kernel 1: initial values
  void erhs();        // kernel 2: forcing (manufactured)
  void ssor_init();   // kernel 3: SSOR work arrays
  void ssor_iter();   // kernel 4: halo exchange + rsd = tau (f - A u)
  void ssor_lt();     // kernel 5: lower triangular wavefront solve
  void ssor_ut();     // kernel 6: upper triangular wavefront solve
  double ssor_rs();   // kernel 7: u += omega * delta; Newton residual
  double error();     // kernel 8: max error vs exact solution
  double pintgr();    // kernel 9: surface integral over the z faces
  double final_verify();  // kernel 10: global residual norm

 private:
  void exchange_halo();
  void fill_analytic_ghosts();
  [[nodiscard]] Block5 diag_block(const Vec5& u_point) const;

  LuConfig config_;
  simmpi::Comm* comm_;
  PencilDecomp decomp_;
  PencilDecomp::RankLayout layout_;
  int nx_, ny_, nz_;

  Field5 u_;
  Field5 rsd_;
  Field5 forcing_;
  Block5 coupling_;
  Block5 off_;  ///< constant off-diagonal jacobian block (per direction)

  std::vector<double> col_buf_, row_buf_;
};

/// LU's kernel table (§4.3) over any rank with LU's kernel methods —
/// LuRank for the host-measured study, the timed LU rank for the timed
/// one.  The caller sets reset().
template <typename Rank>
[[nodiscard]] coupling::ParallelLoopApp lu_kernels(Rank& rank,
                                                   int iterations) {
  coupling::ParallelLoopApp app;
  app.prologue = {
      {"Initialization", [&rank] { rank.initialize(); }},
      {"Erhs", [&rank] { rank.erhs(); }},
      {"Ssor_Init", [&rank] { rank.ssor_init(); }},
  };
  app.loop = {
      {"Ssor_Iter", [&rank] { rank.ssor_iter(); }},
      {"Ssor_LT", [&rank] { rank.ssor_lt(); }},
      {"Ssor_UT", [&rank] { rank.ssor_ut(); }},
      {"Ssor_RS", [&rank] { (void)rank.ssor_rs(); }},
  };
  app.epilogue = {
      {"Error", [&rank] { (void)rank.error(); }},
      {"Pintgr", [&rank] { (void)rank.pintgr(); }},
      {"Final", [&rank] { (void)rank.final_verify(); }},
  };
  app.iterations = iterations;
  return app;
}

struct LuRunResult {
  double final_error = 0.0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  double surface_integral = 0.0;
  simmpi::RunResult run;
};

[[nodiscard]] LuRunResult run_lu(const LuConfig& config, int ranks,
                                 const simmpi::NetworkParams& net = {});

/// Host-measured parallel LU: the real numeric LuRank kernels (including
/// the per-plane wavefront sweeps) under the parallel measurement protocol
/// (see bt::run_bt_measured_study).
[[nodiscard]] coupling::ParallelStudyResult run_lu_measured_study(
    const LuConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::lu

#pragma once

#include <vector>

#include "coupling/parallel_measurement.hpp"
#include "npb/common/adi.hpp"
#include "npb/common/penta.hpp"
#include "npb/common/stencil.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::npb::sp {

/// Configuration of the SP port.
///
/// SP keeps the paper's eight-kernel decomposition: like BT but with scalar
/// pentadiagonal line solves (five independent scalar systems per line, one
/// per component) and the extra pointwise TXINVR transform between the
/// right-hand-side computation and the sweeps (§4.2).  Applied to the
/// manufactured coupled system of npb/common/stencil.hpp (DESIGN.md §2).
struct SpConfig {
  int n = 12;
  int iterations = 100;
  double tau = 0.4;    ///< pseudo-time step
  double dcoef = 0.15; ///< pentadiagonal smoothing strength
  double gamma = 0.05; ///< u-dependent diagonal strength
  double txeps = 0.2;  ///< strength of the TXINVR pointwise transform
  OperatorSpec op;
};

/// Per-rank SP solver: the paper's eight kernels as methods.  Main loop:
/// copy_faces, txinvr, x_solve, y_solve, z_solve, add.  Kernels 1, 2 and 8
/// (initialize, copy_faces, final_verify) are the shared ADI ones.
class SpRank : public AdiRank {
 public:
  SpRank(const SpConfig& config, simmpi::Comm& comm);

  void txinvr();       // kernel 3: rhs := T rhs (pointwise 5x5)
  void x_solve();      // kernel 4: local scalar pentadiagonal sweeps
  void y_solve();      // kernel 5: distributed pipelined penta sweeps
  void z_solve();      // kernel 6: distributed pipelined penta sweeps
  void add();          // kernel 7: u += T^-1 rhs

  [[nodiscard]] const SpConfig& config() const { return config_; }

 private:
  /// Pentadiagonal row for component c at global line position m of
  /// extent n, with the u-dependent centre coefficient.
  [[nodiscard]] PentaRow make_row(int global_m, int global_n, double u_c,
                                  double rhs_c) const;

  SpConfig config_;
  Block5 tx_;      ///< the TXINVR matrix T
  Block5 txinv_;   ///< T^-1 (applied by add)

  std::vector<PentaRow> rows_;
  std::vector<PentaState> states_;  ///< per-line-per-component states
  std::vector<double> xline_;
  std::vector<double> msg_fwd_, msg_bwd_;
};

/// SP's kernel table (§4.2): BT's with TXINVR after Copy_Faces, over any
/// rank with SP's kernel methods (see bt::bt_kernels).
template <typename Rank>
[[nodiscard]] coupling::ParallelLoopApp sp_kernels(Rank& rank,
                                                   int iterations) {
  coupling::ParallelLoopApp app;
  app.prologue = {{"Initialization", [&rank] { rank.initialize(); }}};
  app.loop = {
      {"Copy_Faces", [&rank] { rank.copy_faces(); }},
      {"Txinvr", [&rank] { rank.txinvr(); }},
      {"X_Solve", [&rank] { rank.x_solve(); }},
      {"Y_Solve", [&rank] { rank.y_solve(); }},
      {"Z_Solve", [&rank] { rank.z_solve(); }},
      {"Add", [&rank] { rank.add(); }},
  };
  app.epilogue = {{"Final", [&rank] { (void)rank.final_verify(); }}};
  app.iterations = iterations;
  return app;
}

struct SpRunResult {
  double final_error = 0.0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  simmpi::RunResult run;
};

[[nodiscard]] SpRunResult run_sp(const SpConfig& config, int ranks,
                                 const simmpi::NetworkParams& net = {});

/// Host-measured parallel SP: the real numeric SpRank kernels under the
/// parallel measurement protocol (see bt::run_bt_measured_study).
[[nodiscard]] coupling::ParallelStudyResult run_sp_measured_study(
    const SpConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study);

}  // namespace kcoup::npb::sp

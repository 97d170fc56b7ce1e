#pragma once

#include <cstddef>

#include "npb/common/decomp.hpp"
#include "npb/common/field.hpp"
#include "npb/common/stencil.hpp"
#include "simmpi/simmpi.hpp"

namespace kcoup::npb {

/// The numeric state and kernels BT and SP share.  Both are NPB's
/// alternating-direction implicit (ADI) code (§4.1–4.2): a face exchange,
/// three line-solve sweeps (one per axis) and an update, here applied to
/// the manufactured coupled elliptic system of stencil.hpp on the y-z
/// square decomposition (DESIGN.md §2).  BtRank and SpRank derive from it
/// and add their line solves, ADD and (SP) TXINVR.
class AdiRank {
 public:
  // INITIALIZATION — manufactured forcing, perturbed initial u, analytic
  // Dirichlet ghost values.
  void initialize();
  // COPY_FACES — halo exchange of u, then rhs = tau (f - A u).
  void copy_faces();
  // FINAL — global max error vs the manufactured solution.
  double final_verify();

  /// Global RMS residual ||f - A u||; synchronising diagnostic.
  double residual_norm();

 protected:
  AdiRank(int n, double tau, const OperatorSpec& op, simmpi::Comm& comm);

  /// Lines in the larger distributed (y or z) sweep, and the longest line:
  /// the sizes of the solvers' scratch arrays.
  [[nodiscard]] std::size_t max_lines() const;
  [[nodiscard]] std::size_t max_len() const;

  // Message tags of the pipelined y and z sweeps.
  static constexpr int kTagYFwd = 111, kTagYBwd = 112;
  static constexpr int kTagZFwd = 113, kTagZBwd = 114;

  int n_;
  double tau_;
  OperatorSpec op_;
  simmpi::Comm* comm_;
  SquareDecomp decomp_;
  SquareDecomp::RankLayout layout_;
  int nx_, ny_, nz_;  // local interior extents

  Field5 u_;
  Field5 rhs_;
  Field5 forcing_;
  Block5 coupling_;

 private:
  void exchange_halo();
  void fill_analytic_ghosts();
};

}  // namespace kcoup::npb

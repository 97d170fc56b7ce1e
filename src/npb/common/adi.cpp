#include "npb/common/adi.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace kcoup::npb {
namespace {

// Halo-exchange tags (direction of travel).
constexpr int kTagYPlus = 101, kTagYMinus = 102;
constexpr int kTagZPlus = 103, kTagZMinus = 104;

/// Deterministic smooth perturbation, a function of global indices only so
/// runs are identical for every rank count.
double perturbation(int gi, int gj, int gk) {
  return 0.3 * std::sin(12.9898 * gi + 78.233 * gj + 37.719 * gk);
}

}  // namespace

AdiRank::AdiRank(int n, double tau, const OperatorSpec& op,
                 simmpi::Comm& comm)
    : n_(n),
      tau_(tau),
      op_(op),
      comm_(&comm),
      decomp_(comm.size()),
      layout_(decomp_.layout(comm.rank(), n, n)),
      nx_(n),
      ny_(layout_.y.count),
      nz_(layout_.z.count),
      u_(nx_, ny_, nz_, 1),
      rhs_(nx_, ny_, nz_, 1),
      forcing_(nx_, ny_, nz_, 1),
      coupling_(OperatorSpec::coupling()) {}

std::size_t AdiRank::max_lines() const {
  return static_cast<std::size_t>(nx_) *
         static_cast<std::size_t>(std::max(ny_, nz_));
}

std::size_t AdiRank::max_len() const {
  return static_cast<std::size_t>(std::max(nx_, std::max(ny_, nz_)));
}

void AdiRank::fill_analytic_ghosts() {
  const int n = n_;
  auto set_exact = [&](int i, int j, int k) {
    const int gi = i;
    const int gj = layout_.y.begin + j;
    const int gk = layout_.z.begin + k;
    u_.set(i, j, k,
           exact_solution(grid_coord(gi, n), grid_coord(gj, n),
                          grid_coord(gk, n)));
  };
  // x ghosts (never exchanged: x is not decomposed).
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      set_exact(-1, j, k);
      set_exact(nx_, j, k);
    }
  }
  // Physical y/z boundary ghosts (interior ones get overwritten by halos).
  for (int k = 0; k < nz_; ++k) {
    for (int i = 0; i < nx_; ++i) {
      if (layout_.y_prev < 0) set_exact(i, -1, k);
      if (layout_.y_next < 0) set_exact(i, ny_, k);
    }
  }
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i) {
      if (layout_.z_prev < 0) set_exact(i, j, -1);
      if (layout_.z_next < 0) set_exact(i, j, nz_);
    }
  }
}

void AdiRank::initialize() {
  const int n = n_;
  // Exact solution + perturbation in the interior.
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const int gi = i, gj = layout_.y.begin + j, gk = layout_.z.begin + k;
        Vec5 v = exact_solution(grid_coord(gi, n), grid_coord(gj, n),
                                grid_coord(gk, n));
        const double p = perturbation(gi, gj, gk);
        for (std::size_t c = 0; c < 5; ++c) v[c] += p;
        u_.set(i, j, k, v);
      }
    }
  }
  fill_analytic_ghosts();

  // Manufactured forcing f = A(u*), evaluated on an exact-filled field so
  // the discrete operator's fixed point is exactly u*.
  Field5 exact(nx_, ny_, nz_, 1);
  for (int k = -1; k <= nz_; ++k) {
    for (int j = -1; j <= ny_; ++j) {
      for (int i = -1; i <= nx_; ++i) {
        const int gi = i, gj = layout_.y.begin + j, gk = layout_.z.begin + k;
        exact.set(i, j, k,
                  exact_solution(grid_coord(gi, n), grid_coord(gj, n),
                                 grid_coord(gk, n)));
      }
    }
  }
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        forcing_.set(i, j, k, apply_operator(exact, i, j, k, op_, coupling_));
      }
    }
  }
}

void AdiRank::exchange_halo() {
  // Pack a y face (nx * nz points) or z face (nx * ny points).
  auto pack_y = [&](int j, std::vector<double>& buf) {
    buf.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_) * 5);
    std::size_t p = 0;
    for (int k = 0; k < nz_; ++k) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 v = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) buf[p++] = v[c];
      }
    }
  };
  auto unpack_y = [&](int j, const std::vector<double>& buf) {
    std::size_t p = 0;
    for (int k = 0; k < nz_; ++k) {
      for (int i = 0; i < nx_; ++i) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = buf[p++];
        u_.set(i, j, k, v);
      }
    }
  };
  auto pack_z = [&](int k, std::vector<double>& buf) {
    buf.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) * 5);
    std::size_t p = 0;
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 v = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) buf[p++] = v[c];
      }
    }
  };
  auto unpack_z = [&](int k, const std::vector<double>& buf) {
    std::size_t p = 0;
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = buf[p++];
        u_.set(i, j, k, v);
      }
    }
  };

  std::vector<double> sy0, sy1, sz0, sz1, r;
  // Sends first (buffered), then receives: deadlock-free symmetric exchange.
  if (layout_.y_prev >= 0) {
    pack_y(0, sy0);
    comm_->send<double>(layout_.y_prev, kTagYMinus, sy0);
  }
  if (layout_.y_next >= 0) {
    pack_y(ny_ - 1, sy1);
    comm_->send<double>(layout_.y_next, kTagYPlus, sy1);
  }
  if (layout_.z_prev >= 0) {
    pack_z(0, sz0);
    comm_->send<double>(layout_.z_prev, kTagZMinus, sz0);
  }
  if (layout_.z_next >= 0) {
    pack_z(nz_ - 1, sz1);
    comm_->send<double>(layout_.z_next, kTagZPlus, sz1);
  }
  if (layout_.y_prev >= 0) {
    r.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_) * 5);
    comm_->recv<double>(layout_.y_prev, kTagYPlus, r);
    unpack_y(-1, r);
  }
  if (layout_.y_next >= 0) {
    r.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_) * 5);
    comm_->recv<double>(layout_.y_next, kTagYMinus, r);
    unpack_y(ny_, r);
  }
  if (layout_.z_prev >= 0) {
    r.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) * 5);
    comm_->recv<double>(layout_.z_prev, kTagZPlus, r);
    unpack_z(-1, r);
  }
  if (layout_.z_next >= 0) {
    r.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) * 5);
    comm_->recv<double>(layout_.z_next, kTagZMinus, r);
    unpack_z(nz_, r);
  }
}

void AdiRank::copy_faces() {
  exchange_halo();
  const double tau = tau_;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 au = apply_operator(u_, i, j, k, op_, coupling_);
        const Vec5 f = forcing_.get(i, j, k);
        Vec5 r;
        for (std::size_t c = 0; c < 5; ++c) r[c] = tau * (f[c] - au[c]);
        rhs_.set(i, j, k, r);
      }
    }
  }
}

double AdiRank::final_verify() {
  const int n = n_;
  double max_err = 0.0;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const int gi = i, gj = layout_.y.begin + j, gk = layout_.z.begin + k;
        const Vec5 ex = exact_solution(grid_coord(gi, n), grid_coord(gj, n),
                                       grid_coord(gk, n));
        const Vec5 uv = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) {
          max_err = std::max(max_err, std::fabs(uv[c] - ex[c]));
        }
      }
    }
  }
  return comm_->allreduce_max(max_err);
}

double AdiRank::residual_norm() {
  exchange_halo();
  double sum = 0.0;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 au = apply_operator(u_, i, j, k, op_, coupling_);
        const Vec5 f = forcing_.get(i, j, k);
        sum += norm2sq5(sub5(f, au));
      }
    }
  }
  const double total = comm_->allreduce_sum(sum);
  const double npts = static_cast<double>(n_) * static_cast<double>(n_) *
                      static_cast<double>(n_) * 5.0;
  return std::sqrt(total / npts);
}

}  // namespace kcoup::npb

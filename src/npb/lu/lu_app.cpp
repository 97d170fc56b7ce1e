#include "npb/lu/lu_app.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>

namespace kcoup::npb::lu {
namespace {

constexpr int kTagXPlus = 301, kTagXMinus = 302;
constexpr int kTagYPlus = 303, kTagYMinus = 304;
constexpr int kTagLtEast = 311, kTagLtNorth = 312;
constexpr int kTagUtWest = 313, kTagUtSouth = 314;

double perturbation(int gi, int gj, int gk) {
  return 0.3 * std::sin(12.9898 * gi + 78.233 * gj + 37.719 * gk);
}

}  // namespace

LuRank::LuRank(const LuConfig& config, simmpi::Comm& comm)
    : config_(config),
      comm_(&comm),
      decomp_(comm.size()),
      layout_(decomp_.layout(comm.rank(), config.n, config.n)),
      nx_(layout_.x.count),
      ny_(layout_.y.count),
      nz_(config.n),
      u_(nx_, ny_, nz_, 1),
      rsd_(nx_, ny_, nz_, 1),
      forcing_(nx_, ny_, nz_, 1),
      coupling_(OperatorSpec::coupling()) {
  if (config_.n < min_grid_extent(Benchmark::kLU)) {
    throw std::invalid_argument("LU: grid too small");
  }
  // Constant off-diagonal jacobian block -tau (c I + 0.05 M); cx=cy=cz
  // are allowed to differ but the port uses the x coefficient for all
  // directions of the triangular factors (the manufactured operator is
  // isotropic by default).
  for (std::size_t e = 0; e < 25; ++e) {
    off_[e] = -config_.tau * 0.05 * coupling_[e];
  }
  for (int i = 0; i < 5; ++i) {
    off_[static_cast<std::size_t>(i * 5 + i)] -= config_.tau * config_.op.cx;
  }
  col_buf_.resize(static_cast<std::size_t>(ny_) * 5);
  row_buf_.resize(static_cast<std::size_t>(nx_) * 5);
}

Block5 LuRank::diag_block(const Vec5& u_point) const {
  const double tau = config_.tau;
  Block5 d{};
  for (std::size_t e = 0; e < 25; ++e) {
    d[e] = tau * config_.op.eps * coupling_[e];
  }
  const double c3 = 2.0 * (config_.op.cx + config_.op.cy + config_.op.cz);
  for (int i = 0; i < 5; ++i) {
    const auto e = static_cast<std::size_t>(i * 5 + i);
    d[e] += 1.0 + tau * c3 +
            tau * config_.gamma * u_point[static_cast<std::size_t>(i)];
  }
  return d;
}

void LuRank::fill_analytic_ghosts() {
  const int n = config_.n;
  auto set_exact = [&](int i, int j, int k) {
    u_.set(i, j, k,
           exact_solution(grid_coord(layout_.x.begin + i, n),
                          grid_coord(layout_.y.begin + j, n),
                          grid_coord(k, n)));
  };
  // z faces are always physical (z is not decomposed).
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i) {
      set_exact(i, j, -1);
      set_exact(i, j, nz_);
    }
  }
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      if (layout_.x_prev < 0) set_exact(-1, j, k);
      if (layout_.x_next < 0) set_exact(nx_, j, k);
    }
    for (int i = 0; i < nx_; ++i) {
      if (layout_.y_prev < 0) set_exact(i, -1, k);
      if (layout_.y_next < 0) set_exact(i, ny_, k);
    }
  }
}

void LuRank::initialize() {
  const int n = config_.n;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const int gi = layout_.x.begin + i, gj = layout_.y.begin + j, gk = k;
        Vec5 v = exact_solution(grid_coord(gi, n), grid_coord(gj, n),
                                grid_coord(gk, n));
        const double p = perturbation(gi, gj, gk);
        for (std::size_t c = 0; c < 5; ++c) v[c] += p;
        u_.set(i, j, k, v);
      }
    }
  }
  fill_analytic_ghosts();
}

void LuRank::erhs() {
  const int n = config_.n;
  Field5 exact(nx_, ny_, nz_, 1);
  for (int k = -1; k <= nz_; ++k) {
    for (int j = -1; j <= ny_; ++j) {
      for (int i = -1; i <= nx_; ++i) {
        exact.set(i, j, k,
                  exact_solution(grid_coord(layout_.x.begin + i, n),
                                 grid_coord(layout_.y.begin + j, n),
                                 grid_coord(k, n)));
      }
    }
  }
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        forcing_.set(i, j, k,
                     apply_operator(exact, i, j, k, config_.op, coupling_));
      }
    }
  }
}

void LuRank::ssor_init() { rsd_.fill(0.0); }

void LuRank::exchange_halo() {
  auto pack_x = [&](int i, std::vector<double>& buf) {
    buf.resize(static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_) * 5);
    std::size_t p = 0;
    for (int k = 0; k < nz_; ++k) {
      for (int j = 0; j < ny_; ++j) {
        const Vec5 v = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) buf[p++] = v[c];
      }
    }
  };
  auto unpack_x = [&](int i, const std::vector<double>& buf) {
    std::size_t p = 0;
    for (int k = 0; k < nz_; ++k) {
      for (int j = 0; j < ny_; ++j) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = buf[p++];
        u_.set(i, j, k, v);
      }
    }
  };
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

  std::vector<double> sx0, sx1, sy0, sy1, r;
  if (layout_.x_prev >= 0) {
    pack_x(0, sx0);
    comm_->send<double>(layout_.x_prev, kTagXMinus, sx0);
  }
  if (layout_.x_next >= 0) {
    pack_x(nx_ - 1, sx1);
    comm_->send<double>(layout_.x_next, kTagXPlus, sx1);
  }
  if (layout_.y_prev >= 0) {
    pack_y(0, sy0);
    comm_->send<double>(layout_.y_prev, kTagYMinus, sy0);
  }
  if (layout_.y_next >= 0) {
    pack_y(ny_ - 1, sy1);
    comm_->send<double>(layout_.y_next, kTagYPlus, sy1);
  }
  if (layout_.x_prev >= 0) {
    r.resize(static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_) * 5);
    comm_->recv<double>(layout_.x_prev, kTagXPlus, r);
    unpack_x(-1, r);
  }
  if (layout_.x_next >= 0) {
    r.resize(static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_) * 5);
    comm_->recv<double>(layout_.x_next, kTagXMinus, r);
    unpack_x(nx_, r);
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
}

void LuRank::ssor_iter() {
  exchange_halo();
  const double tau = config_.tau;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 au = apply_operator(u_, i, j, k, config_.op, coupling_);
        const Vec5 f = forcing_.get(i, j, k);
        Vec5 r;
        for (std::size_t c = 0; c < 5; ++c) r[c] = tau * (f[c] - au[c]);
        rsd_.set(i, j, k, r);
      }
    }
  }
}

void LuRank::ssor_lt() {
  // Zero correction at every boundary of the sweep (physical Dirichlet).
  // Ghost entries hold either zeros or partition-boundary values received
  // from the west/south neighbours.
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i) {
      rsd_.set(i, j, -1, kZeroVec);
      rsd_.set(i, j, nz_, kZeroVec);
    }
  }
  for (int k = 0; k < nz_; ++k) {
    // Per-plane wavefront hand-off: the paper's "relatively large number of
    // small communications".
    if (layout_.x_prev >= 0) {
      comm_->recv<double>(layout_.x_prev, kTagLtEast, col_buf_);
      std::size_t p = 0;
      for (int j = 0; j < ny_; ++j) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = col_buf_[p++];
        rsd_.set(-1, j, k, v);
      }
    } else {
      for (int j = 0; j < ny_; ++j) rsd_.set(-1, j, k, kZeroVec);
    }
    if (layout_.y_prev >= 0) {
      comm_->recv<double>(layout_.y_prev, kTagLtNorth, row_buf_);
      std::size_t p = 0;
      for (int i = 0; i < nx_; ++i) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = row_buf_[p++];
        rsd_.set(i, -1, k, v);
      }
    } else {
      for (int i = 0; i < nx_; ++i) rsd_.set(i, -1, k, kZeroVec);
    }

    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        Vec5 r = rsd_.get(i, j, k);
        const Vec5 w = matvec5(off_, rsd_.get(i - 1, j, k));
        const Vec5 s = matvec5(off_, rsd_.get(i, j - 1, k));
        const Vec5 b = matvec5(off_, rsd_.get(i, j, k - 1));
        for (std::size_t c = 0; c < 5; ++c) r[c] -= w[c] + s[c] + b[c];
        Lu5 f;
        if (!lu_factor5(diag_block(u_.get(i, j, k)), f)) {
          throw std::runtime_error("LU ssor_lt: singular diagonal block");
        }
        rsd_.set(i, j, k, lu_solve5(f, r));
      }
    }

    if (layout_.x_next >= 0) {
      std::size_t p = 0;
      for (int j = 0; j < ny_; ++j) {
        const Vec5 v = rsd_.get(nx_ - 1, j, k);
        for (std::size_t c = 0; c < 5; ++c) col_buf_[p++] = v[c];
      }
      comm_->send<double>(layout_.x_next, kTagLtEast, col_buf_);
    }
    if (layout_.y_next >= 0) {
      std::size_t p = 0;
      for (int i = 0; i < nx_; ++i) {
        const Vec5 v = rsd_.get(i, ny_ - 1, k);
        for (std::size_t c = 0; c < 5; ++c) row_buf_[p++] = v[c];
      }
      comm_->send<double>(layout_.y_next, kTagLtNorth, row_buf_);
    }
  }
}

void LuRank::ssor_ut() {
  for (int k = nz_ - 1; k >= 0; --k) {
    if (layout_.x_next >= 0) {
      comm_->recv<double>(layout_.x_next, kTagUtWest, col_buf_);
      std::size_t p = 0;
      for (int j = 0; j < ny_; ++j) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = col_buf_[p++];
        rsd_.set(nx_, j, k, v);
      }
    } else {
      for (int j = 0; j < ny_; ++j) rsd_.set(nx_, j, k, kZeroVec);
    }
    if (layout_.y_next >= 0) {
      comm_->recv<double>(layout_.y_next, kTagUtSouth, row_buf_);
      std::size_t p = 0;
      for (int i = 0; i < nx_; ++i) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) v[c] = row_buf_[p++];
        rsd_.set(i, ny_, k, v);
      }
    } else {
      for (int i = 0; i < nx_; ++i) rsd_.set(i, ny_, k, kZeroVec);
    }

    for (int j = ny_ - 1; j >= 0; --j) {
      for (int i = nx_ - 1; i >= 0; --i) {
        const Block5 d = diag_block(u_.get(i, j, k));
        // (D + U) delta = D delta*; delta* is the current rsd value.
        Vec5 r = matvec5(d, rsd_.get(i, j, k));
        const Vec5 e = matvec5(off_, rsd_.get(i + 1, j, k));
        const Vec5 nb = matvec5(off_, rsd_.get(i, j + 1, k));
        const Vec5 t = matvec5(off_, rsd_.get(i, j, k + 1));
        for (std::size_t c = 0; c < 5; ++c) r[c] -= e[c] + nb[c] + t[c];
        Lu5 f;
        if (!lu_factor5(d, f)) {
          throw std::runtime_error("LU ssor_ut: singular diagonal block");
        }
        rsd_.set(i, j, k, lu_solve5(f, r));
      }
    }

    if (layout_.x_prev >= 0) {
      std::size_t p = 0;
      for (int j = 0; j < ny_; ++j) {
        const Vec5 v = rsd_.get(0, j, k);
        for (std::size_t c = 0; c < 5; ++c) col_buf_[p++] = v[c];
      }
      comm_->send<double>(layout_.x_prev, kTagUtWest, col_buf_);
    }
    if (layout_.y_prev >= 0) {
      std::size_t p = 0;
      for (int i = 0; i < nx_; ++i) {
        const Vec5 v = rsd_.get(i, 0, k);
        for (std::size_t c = 0; c < 5; ++c) row_buf_[p++] = v[c];
      }
      comm_->send<double>(layout_.y_prev, kTagUtSouth, row_buf_);
    }
  }
}

double LuRank::ssor_rs() {
  double sum = 0.0;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 d = rsd_.get(i, j, k);
        Vec5 v = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) v[c] += config_.omega * d[c];
        u_.set(i, j, k, v);
        sum += norm2sq5(d);
      }
    }
  }
  return std::sqrt(comm_->allreduce_sum(sum));
}

double LuRank::error() {
  const int n = config_.n;
  double max_err = 0.0;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 ex = exact_solution(grid_coord(layout_.x.begin + i, n),
                                       grid_coord(layout_.y.begin + j, n),
                                       grid_coord(k, n));
        const Vec5 uv = u_.get(i, j, k);
        for (std::size_t c = 0; c < 5; ++c) {
          max_err = std::max(max_err, std::fabs(uv[c] - ex[c]));
        }
      }
    }
  }
  return comm_->allreduce_max(max_err);
}

double LuRank::pintgr() {
  // Surface integral of the first component over the two physical z faces.
  double sum = 0.0;
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i) {
      sum += u_.at(0, i, j, 0) + u_.at(0, i, j, nz_ - 1);
    }
  }
  const double h = 1.0 / static_cast<double>(config_.n - 1);
  return comm_->allreduce_sum(sum) * h * h;
}

double LuRank::final_verify() {
  exchange_halo();
  double sum = 0.0;
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec5 au = apply_operator(u_, i, j, k, config_.op, coupling_);
        sum += norm2sq5(sub5(forcing_.get(i, j, k), au));
      }
    }
  }
  const double total = comm_->allreduce_sum(sum);
  const double npts = static_cast<double>(config_.n) *
                      static_cast<double>(config_.n) *
                      static_cast<double>(config_.n) * 5.0;
  return std::sqrt(total / npts);
}

LuRunResult run_lu(const LuConfig& config, int ranks,
                   const simmpi::NetworkParams& net) {
  LuRunResult result;
  std::mutex mu;
  result.run = simmpi::run(ranks, net, [&](simmpi::Comm& comm) {
    LuRank rank(config, comm);
    rank.initialize();
    rank.erhs();
    rank.ssor_init();
    rank.ssor_iter();
    const double r0 = rank.final_verify();
    for (int it = 0; it < config.iterations; ++it) {
      rank.ssor_iter();
      rank.ssor_lt();
      rank.ssor_ut();
      rank.ssor_rs();
    }
    const double err = rank.error();
    const double integral = rank.pintgr();
    const double r1 = rank.final_verify();
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      result.initial_residual = r0;
      result.final_residual = r1;
      result.final_error = err;
      result.surface_integral = integral;
    }
  });
  return result;
}

coupling::ParallelStudyResult run_lu_measured_study(
    const LuConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study) {
  return coupling::run_simmpi_study(ranks, net, [&](simmpi::Comm& comm) {
    LuRank rank(config, comm);
    return coupling::run_parallel_study(
        comm,
        coupling::charge_thread_cpu_time(lu_kernels(rank, config.iterations),
                                         comm),
        study);
  });
}

}  // namespace kcoup::npb::lu

#include "npb/sp/sp_app.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "npb/common/problem.hpp"

namespace kcoup::npb::sp {
namespace {

// Per line: 5 components x 2 rows x (dtil, etil, rtil).
constexpr std::size_t kFwdDoubles = 30;
// Per line: 5 components x 2 solution values.
constexpr std::size_t kBwdDoubles = 10;

}  // namespace

SpRank::SpRank(const SpConfig& config, simmpi::Comm& comm)
    : AdiRank(config.n, config.tau, config.op, comm), config_(config) {
  if (config_.n < min_grid_extent(Benchmark::kSP)) {
    throw std::invalid_argument("SP: grid too small");
  }
  // T = I + txeps/2 * M is diagonally dominant, hence invertible.
  tx_ = identity5();
  for (std::size_t e = 0; e < 25; ++e) {
    tx_[e] += 0.5 * config_.txeps * coupling_[e];
  }
  if (!invert5(tx_, txinv_)) {
    throw std::runtime_error("SP: TXINVR matrix not invertible");
  }

  rows_.resize(max_len());
  xline_.resize(max_len());
  states_.resize(max_lines() * max_len() * 5);
  msg_fwd_.resize(max_lines() * kFwdDoubles);
  msg_bwd_.resize(max_lines() * kBwdDoubles);
}

PentaRow SpRank::make_row(int global_m, int global_n, double u_c,
                          double rhs_c) const {
  const double d = config_.dcoef;
  PentaRow row;
  row.c = 1.0 + 6.0 * d + config_.tau * config_.gamma * u_c;
  row.b = global_m >= 1 ? -2.0 * d : 0.0;
  row.a = global_m >= 2 ? -0.5 * d : 0.0;
  row.d = global_m <= global_n - 2 ? -2.0 * d : 0.0;
  row.e = global_m <= global_n - 3 ? -0.5 * d : 0.0;
  row.r = rhs_c;
  return row;
}

void SpRank::txinvr() {
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        rhs_.set(i, j, k, matvec5(tx_, rhs_.get(i, j, k)));
      }
    }
  }
}

void SpRank::x_solve() {
  const int n = config_.n;
  auto rows = std::span(rows_).first(static_cast<std::size_t>(nx_));
  auto x = std::span(xline_).first(static_cast<std::size_t>(nx_));
  auto scratch =
      std::span(states_).first(static_cast<std::size_t>(nx_));
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (std::size_t c = 0; c < 5; ++c) {
        for (int i = 0; i < nx_; ++i) {
          rows_[static_cast<std::size_t>(i)] = make_row(
              i, n, u_.at(static_cast<int>(c), i, j, k),
              rhs_.at(static_cast<int>(c), i, j, k));
        }
        penta_solve_line(rows, x, scratch);
        for (int i = 0; i < nx_; ++i) {
          rhs_.at(static_cast<int>(c), i, j, k) =
              xline_[static_cast<std::size_t>(i)];
        }
      }
    }
  }
}

void SpRank::y_solve() {
  const int n = config_.n;
  const std::size_t lines =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_);
  const auto len = static_cast<std::size_t>(ny_);
  const bool have_prev = layout_.y_prev >= 0;
  const bool have_next = layout_.y_next >= 0;

  if (have_prev) {
    comm_->recv<double>(layout_.y_prev, kTagYFwd,
                        std::span(msg_fwd_).first(lines * kFwdDoubles));
  }
  std::size_t line = 0;
  for (int k = 0; k < nz_; ++k) {
    for (int i = 0; i < nx_; ++i, ++line) {
      double* msg = &msg_fwd_[line * kFwdDoubles];
      for (std::size_t c = 0; c < 5; ++c) {
        for (int j = 0; j < ny_; ++j) {
          rows_[static_cast<std::size_t>(j)] =
              make_row(layout_.y.begin + j, n,
                       u_.at(static_cast<int>(c), i, j, k),
                       rhs_.at(static_cast<int>(c), i, j, k));
        }
        PentaState p2, p1;
        if (have_prev) {
          p2 = PentaState{msg[c * 6 + 0], msg[c * 6 + 1], msg[c * 6 + 2]};
          p1 = PentaState{msg[c * 6 + 3], msg[c * 6 + 4], msg[c * 6 + 5]};
        }
        auto states = std::span(states_).subspan((line * 5 + c) * len, len);
        const auto [s2, s1] = penta_forward(
            std::span(rows_).first(len), p2, p1, states);
        msg[c * 6 + 0] = s2.dtil;
        msg[c * 6 + 1] = s2.etil;
        msg[c * 6 + 2] = s2.rtil;
        msg[c * 6 + 3] = s1.dtil;
        msg[c * 6 + 4] = s1.etil;
        msg[c * 6 + 5] = s1.rtil;
      }
    }
  }
  if (have_next) {
    comm_->send<double>(layout_.y_next, kTagYFwd,
                        std::span(msg_fwd_).first(lines * kFwdDoubles));
  }

  if (have_next) {
    comm_->recv<double>(layout_.y_next, kTagYBwd,
                        std::span(msg_bwd_).first(lines * kBwdDoubles));
  } else {
    std::fill(msg_bwd_.begin(), msg_bwd_.end(), 0.0);
  }
  for (int k = nz_ - 1; k >= 0; --k) {
    for (int i = nx_ - 1; i >= 0; --i) {
      line = static_cast<std::size_t>(k) * static_cast<std::size_t>(nx_) +
             static_cast<std::size_t>(i);
      double* msg = &msg_bwd_[line * kBwdDoubles];
      for (std::size_t c = 0; c < 5; ++c) {
        auto states = std::span<const PentaState>(states_).subspan(
            (line * 5 + c) * len, len);
        auto x = std::span(xline_).first(len);
        const auto [x0, x1] =
            penta_backward(states, msg[c * 2 + 0], msg[c * 2 + 1], x);
        for (int j = 0; j < ny_; ++j) {
          rhs_.at(static_cast<int>(c), i, j, k) =
              xline_[static_cast<std::size_t>(j)];
        }
        msg[c * 2 + 0] = x0;
        msg[c * 2 + 1] = x1;
      }
    }
  }
  if (have_prev) {
    comm_->send<double>(layout_.y_prev, kTagYBwd,
                        std::span(msg_bwd_).first(lines * kBwdDoubles));
  }
}

void SpRank::z_solve() {
  const int n = config_.n;
  const std::size_t lines =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  const auto len = static_cast<std::size_t>(nz_);
  const bool have_prev = layout_.z_prev >= 0;
  const bool have_next = layout_.z_next >= 0;

  if (have_prev) {
    comm_->recv<double>(layout_.z_prev, kTagZFwd,
                        std::span(msg_fwd_).first(lines * kFwdDoubles));
  }
  std::size_t line = 0;
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i, ++line) {
      double* msg = &msg_fwd_[line * kFwdDoubles];
      for (std::size_t c = 0; c < 5; ++c) {
        for (int k = 0; k < nz_; ++k) {
          rows_[static_cast<std::size_t>(k)] =
              make_row(layout_.z.begin + k, n,
                       u_.at(static_cast<int>(c), i, j, k),
                       rhs_.at(static_cast<int>(c), i, j, k));
        }
        PentaState p2, p1;
        if (have_prev) {
          p2 = PentaState{msg[c * 6 + 0], msg[c * 6 + 1], msg[c * 6 + 2]};
          p1 = PentaState{msg[c * 6 + 3], msg[c * 6 + 4], msg[c * 6 + 5]};
        }
        auto states = std::span(states_).subspan((line * 5 + c) * len, len);
        const auto [s2, s1] = penta_forward(
            std::span(rows_).first(len), p2, p1, states);
        msg[c * 6 + 0] = s2.dtil;
        msg[c * 6 + 1] = s2.etil;
        msg[c * 6 + 2] = s2.rtil;
        msg[c * 6 + 3] = s1.dtil;
        msg[c * 6 + 4] = s1.etil;
        msg[c * 6 + 5] = s1.rtil;
      }
    }
  }
  if (have_next) {
    comm_->send<double>(layout_.z_next, kTagZFwd,
                        std::span(msg_fwd_).first(lines * kFwdDoubles));
  }

  if (have_next) {
    comm_->recv<double>(layout_.z_next, kTagZBwd,
                        std::span(msg_bwd_).first(lines * kBwdDoubles));
  } else {
    std::fill(msg_bwd_.begin(), msg_bwd_.end(), 0.0);
  }
  for (int j = ny_ - 1; j >= 0; --j) {
    for (int i = nx_ - 1; i >= 0; --i) {
      line = static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
             static_cast<std::size_t>(i);
      double* msg = &msg_bwd_[line * kBwdDoubles];
      for (std::size_t c = 0; c < 5; ++c) {
        auto states = std::span<const PentaState>(states_).subspan(
            (line * 5 + c) * len, len);
        auto x = std::span(xline_).first(len);
        const auto [x0, x1] =
            penta_backward(states, msg[c * 2 + 0], msg[c * 2 + 1], x);
        for (int k = 0; k < nz_; ++k) {
          rhs_.at(static_cast<int>(c), i, j, k) =
              xline_[static_cast<std::size_t>(k)];
        }
        msg[c * 2 + 0] = x0;
        msg[c * 2 + 1] = x1;
      }
    }
  }
  if (have_prev) {
    comm_->send<double>(layout_.z_prev, kTagZBwd,
                        std::span(msg_bwd_).first(lines * kBwdDoubles));
  }
}

void SpRank::add() {
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        u_.add(i, j, k, matvec5(txinv_, rhs_.get(i, j, k)));
      }
    }
  }
}

SpRunResult run_sp(const SpConfig& config, int ranks,
                   const simmpi::NetworkParams& net) {
  SpRunResult result;
  std::mutex mu;
  result.run = simmpi::run(ranks, net, [&](simmpi::Comm& comm) {
    SpRank rank(config, comm);
    rank.initialize();
    const double r0 = rank.residual_norm();
    for (int it = 0; it < config.iterations; ++it) {
      rank.copy_faces();
      rank.txinvr();
      rank.x_solve();
      rank.y_solve();
      rank.z_solve();
      rank.add();
    }
    const double r1 = rank.residual_norm();
    const double err = rank.final_verify();
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      result.initial_residual = r0;
      result.final_residual = r1;
      result.final_error = err;
    }
  });
  return result;
}

coupling::ParallelStudyResult run_sp_measured_study(
    const SpConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study) {
  return coupling::run_simmpi_study(ranks, net, [&](simmpi::Comm& comm) {
    SpRank rank(config, comm);
    return coupling::run_parallel_study(
        comm,
        coupling::charge_thread_cpu_time(sp_kernels(rank, config.iterations),
                                         comm),
        study);
  });
}

}  // namespace kcoup::npb::sp

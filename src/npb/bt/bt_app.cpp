#include "npb/bt/bt_app.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "npb/common/problem.hpp"

namespace kcoup::npb::bt {
namespace {

constexpr std::size_t kStateDoubles = 30;  // Block5 (25) + Vec5 (5)

void pack_state(const BlockTriState& s, double* out) {
  std::memcpy(out, s.ctil.data(), 25 * sizeof(double));
  std::memcpy(out + 25, s.rtil.data(), 5 * sizeof(double));
}

BlockTriState unpack_state(const double* in) {
  BlockTriState s;
  std::memcpy(s.ctil.data(), in, 25 * sizeof(double));
  std::memcpy(s.rtil.data(), in + 25, 5 * sizeof(double));
  return s;
}

}  // namespace

BtRank::BtRank(const BtConfig& config, simmpi::Comm& comm)
    : AdiRank(config.n, config.tau, config.op, comm), config_(config) {
  if (config_.n < min_grid_extent(Benchmark::kBT)) {
    throw std::invalid_argument("BT: grid too small");
  }
  rows_.resize(max_len());
  xline_.resize(max_len());
  states_.resize(max_lines() * max_len());
  msg_fwd_.resize(max_lines() * kStateDoubles);
  msg_bwd_.resize(max_lines() * 5);
}

BlockTriRow BtRank::make_row(int global_m, int global_n, const Vec5& u_point,
                             double coeff) const {
  const double tau = config_.tau;
  BlockTriRow row;
  Block5 off{};
  for (std::size_t e = 0; e < 25; ++e) {
    off[e] = -tau * 0.05 * coupling_[e];
  }
  for (int i = 0; i < 5; ++i) {
    off[static_cast<std::size_t>(i * 5 + i)] -= tau * coeff;
  }
  if (global_m > 0) row.a = off;
  if (global_m < global_n - 1) row.c = off;

  Block5 b{};
  for (std::size_t e = 0; e < 25; ++e) {
    b[e] = tau * (config_.op.eps / 3.0) * coupling_[e];
  }
  for (int i = 0; i < 5; ++i) {
    const auto d = static_cast<std::size_t>(i * 5 + i);
    b[d] += 1.0 + 2.0 * tau * coeff +
            tau * config_.gamma * u_point[static_cast<std::size_t>(i)];
  }
  row.b = b;
  return row;
}

void BtRank::x_solve() {
  const int n = config_.n;
  auto rows = std::span(rows_).first(static_cast<std::size_t>(nx_));
  auto states = std::span(states_).first(static_cast<std::size_t>(nx_));
  auto x = std::span(xline_).first(static_cast<std::size_t>(nx_));
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        BlockTriRow row = make_row(i, n, u_.get(i, j, k), config_.op.cx);
        row.r = rhs_.get(i, j, k);
        rows_[static_cast<std::size_t>(i)] = row;
      }
      if (!blocktri_solve_line(rows, x, states)) {
        throw std::runtime_error("BT x_solve: singular pivot block");
      }
      for (int i = 0; i < nx_; ++i) {
        rhs_.set(i, j, k, xline_[static_cast<std::size_t>(i)]);
      }
    }
  }
}

void BtRank::y_solve() {
  const int n = config_.n;
  const std::size_t lines =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_);
  const auto len = static_cast<std::size_t>(ny_);

  // Forward sweep (pipelined rank order along +y).
  const bool have_prev = layout_.y_prev >= 0;
  const bool have_next = layout_.y_next >= 0;
  if (have_prev) {
    comm_->recv<double>(layout_.y_prev, kTagYFwd,
                        std::span(msg_fwd_).first(lines * kStateDoubles));
  }
  std::size_t line = 0;
  for (int k = 0; k < nz_; ++k) {
    for (int i = 0; i < nx_; ++i, ++line) {
      for (int j = 0; j < ny_; ++j) {
        BlockTriRow row = make_row(layout_.y.begin + j, n, u_.get(i, j, k),
                                   config_.op.cy);
        row.r = rhs_.get(i, j, k);
        rows_[static_cast<std::size_t>(j)] = row;
      }
      BlockTriState prev;
      const BlockTriState* prev_ptr = nullptr;
      if (have_prev) {
        prev = unpack_state(&msg_fwd_[line * kStateDoubles]);
        prev_ptr = &prev;
      }
      BlockTriState last;
      auto states = std::span(states_).subspan(line * len, len);
      if (!blocktri_forward(std::span(rows_).first(len), prev_ptr, states,
                            last)) {
        throw std::runtime_error("BT y_solve: singular pivot block");
      }
      pack_state(last, &msg_fwd_[line * kStateDoubles]);
    }
  }
  if (have_next) {
    comm_->send<double>(layout_.y_next, kTagYFwd,
                        std::span(msg_fwd_).first(lines * kStateDoubles));
  }

  // Backward sweep (reverse rank order).
  if (have_next) {
    comm_->recv<double>(layout_.y_next, kTagYBwd,
                        std::span(msg_bwd_).first(lines * 5));
  } else {
    std::fill(msg_bwd_.begin(), msg_bwd_.end(), 0.0);
  }
  // Walk lines in reverse: the states written last in the forward phase are
  // consumed first, keeping the read-back cache-pipelined.
  for (int k = nz_ - 1; k >= 0; --k) {
    for (int i = nx_ - 1; i >= 0; --i) {
      line = static_cast<std::size_t>(k) * static_cast<std::size_t>(nx_) +
             static_cast<std::size_t>(i);
      Vec5 xnext;
      std::memcpy(xnext.data(), &msg_bwd_[line * 5], 5 * sizeof(double));
      auto states = std::span(states_).subspan(line * len, len);
      auto x = std::span(xline_).first(len);
      const Vec5 xfirst = blocktri_backward(states, xnext, x);
      for (int j = 0; j < ny_; ++j) {
        rhs_.set(i, j, k, xline_[static_cast<std::size_t>(j)]);
      }
      std::memcpy(&msg_bwd_[line * 5], xfirst.data(), 5 * sizeof(double));
    }
  }
  if (have_prev) {
    comm_->send<double>(layout_.y_prev, kTagYBwd,
                        std::span(msg_bwd_).first(lines * 5));
  }
}

void BtRank::z_solve() {
  const int n = config_.n;
  const std::size_t lines =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  const auto len = static_cast<std::size_t>(nz_);

  const bool have_prev = layout_.z_prev >= 0;
  const bool have_next = layout_.z_next >= 0;
  if (have_prev) {
    comm_->recv<double>(layout_.z_prev, kTagZFwd,
                        std::span(msg_fwd_).first(lines * kStateDoubles));
  }
  std::size_t line = 0;
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i < nx_; ++i, ++line) {
      for (int k = 0; k < nz_; ++k) {
        BlockTriRow row = make_row(layout_.z.begin + k, n, u_.get(i, j, k),
                                   config_.op.cz);
        row.r = rhs_.get(i, j, k);
        rows_[static_cast<std::size_t>(k)] = row;
      }
      BlockTriState prev;
      const BlockTriState* prev_ptr = nullptr;
      if (have_prev) {
        prev = unpack_state(&msg_fwd_[line * kStateDoubles]);
        prev_ptr = &prev;
      }
      BlockTriState last;
      auto states = std::span(states_).subspan(line * len, len);
      if (!blocktri_forward(std::span(rows_).first(len), prev_ptr, states,
                            last)) {
        throw std::runtime_error("BT z_solve: singular pivot block");
      }
      pack_state(last, &msg_fwd_[line * kStateDoubles]);
    }
  }
  if (have_next) {
    comm_->send<double>(layout_.z_next, kTagZFwd,
                        std::span(msg_fwd_).first(lines * kStateDoubles));
  }

  if (have_next) {
    comm_->recv<double>(layout_.z_next, kTagZBwd,
                        std::span(msg_bwd_).first(lines * 5));
  } else {
    std::fill(msg_bwd_.begin(), msg_bwd_.end(), 0.0);
  }
  // Reverse line order: see y_solve.
  for (int j = ny_ - 1; j >= 0; --j) {
    for (int i = nx_ - 1; i >= 0; --i) {
      line = static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
             static_cast<std::size_t>(i);
      Vec5 xnext;
      std::memcpy(xnext.data(), &msg_bwd_[line * 5], 5 * sizeof(double));
      auto states = std::span(states_).subspan(line * len, len);
      auto x = std::span(xline_).first(len);
      const Vec5 xfirst = blocktri_backward(states, xnext, x);
      for (int k = 0; k < nz_; ++k) {
        rhs_.set(i, j, k, xline_[static_cast<std::size_t>(k)]);
      }
      std::memcpy(&msg_bwd_[line * 5], xfirst.data(), 5 * sizeof(double));
    }
  }
  if (have_prev) {
    comm_->send<double>(layout_.z_prev, kTagZBwd,
                        std::span(msg_bwd_).first(lines * 5));
  }
}

void BtRank::add() {
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        u_.add(i, j, k, rhs_.get(i, j, k));
      }
    }
  }
}

BtRunResult run_bt(const BtConfig& config, int ranks,
                   const simmpi::NetworkParams& net) {
  BtRunResult result;
  std::mutex mu;
  result.run = simmpi::run(ranks, net, [&](simmpi::Comm& comm) {
    BtRank rank(config, comm);
    rank.initialize();
    const double r0 = rank.residual_norm();
    for (int it = 0; it < config.iterations; ++it) {
      rank.copy_faces();
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

coupling::ParallelStudyResult run_bt_measured_study(
    const BtConfig& config, int ranks, const simmpi::NetworkParams& net,
    const coupling::StudyOptions& study) {
  return coupling::run_simmpi_study(ranks, net, [&](simmpi::Comm& comm) {
    BtRank rank(config, comm);
    return coupling::run_parallel_study(
        comm,
        coupling::charge_thread_cpu_time(bt_kernels(rank, config.iterations),
                                         comm),
        study);
  });
}

}  // namespace kcoup::npb::bt

#include "npb/common/timed.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

namespace kcoup::npb {
namespace {

using machine::WorkProfile;

// Message tags of the timed ADI rank (direction of travel).
constexpr int kTagYPlus = 151, kTagYMinus = 152;
constexpr int kTagZPlus = 153, kTagZMinus = 154;
constexpr int kTagYFwd = 161, kTagYBwd = 162;
constexpr int kTagZFwd = 163, kTagZBwd = 164;

}  // namespace

void check_timed_grid(Benchmark b, int n, int ranks) {
  const std::string app = to_string(b);
  if (n < min_grid_extent(b)) {
    throw std::invalid_argument(app + ": grid too small");
  }
  // Constructing the decomposition checks the rank count.  LU's pencil
  // grid is px x py with px >= py, so px bounds both axes.
  const int widest =
      b == Benchmark::kLU ? PencilDecomp(ranks).px() : SquareDecomp(ranks).q();
  if (widest > n) {
    throw std::invalid_argument(app + ": n = " + std::to_string(n) +
                                " leaves ranks of P = " +
                                std::to_string(ranks) + " without grid points");
  }
}

simmpi::NetworkParams TimedOptions::network() const {
  simmpi::NetworkParams net;
  net.latency_s = machine.net_latency_s;
  net.seconds_per_byte = machine.net_seconds_per_byte;
  net.sync_latency_s = machine.sync_latency_s;
  return net;
}

TimedCompute::TimedCompute(const TimedOptions& options, simmpi::Comm& comm)
    : comm_(&comm),
      jitter_(options.jitter),
      machine_([&] {
        machine::MachineConfig cfg = options.machine;
        cfg.ranks = comm.size();
        // The analytic synchronisation/imbalance model must stay out of the
        // timed path: skew is emergent here.
        cfg.imbalance_coeff = 0.0;
        return cfg;
      }()) {}

void TimedCompute::charge(const machine::WorkProfile& profile) {
  const double seconds = machine_.execute_seconds(profile);
  charge(seconds, profile.kernel, next_invocation());
}

void TimedCompute::charge(double seconds, machine::KernelId kernel,
                          std::uint64_t salt) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(comm_->rank()) << 40) ^
      (static_cast<std::uint64_t>(kernel) << 32) ^ salt;
  comm_->advance(seconds * (1.0 + jitter_ * machine::Machine::unit_hash(key)));
}

void TimedCompute::reset() {
  machine_.reset_state();
  invocation_ = 0;
}

TimedAdiRank::TimedAdiRank(int n, const AdiWork& work,
                           const TimedOptions& options, simmpi::Comm& comm)
    : work_(work),
      comm_(&comm),
      decomp_(comm.size()),
      layout_(decomp_.layout(comm.rank(), n, n)),
      nx_(n),
      ny_(layout_.y.count),
      nz_(layout_.z.count),
      compute_(options, comm),
      profiles_(adi_kernel_profiles(compute_.machine(), nx_, ny_, nz_, work)) {
  std::tie(y_fwd_, y_bwd_) = split_sweep(profiles_.y_solve);
  std::tie(z_fwd_, z_bwd_) = split_sweep(profiles_.z_solve);
  ylines_ = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_);
  zlines_ = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  yface_.assign(ylines_ * 5, 0.0);
  zface_.assign(zlines_ * 5, 0.0);
  pipe_buf_.assign(std::max(ylines_, zlines_) * work_.fwd_msg_doubles, 0.0);
}

std::pair<WorkProfile, WorkProfile> TimedAdiRank::split_sweep(
    const WorkProfile& sweep) {
  // Forward: read rhs + u, build/write the elimination states (~70 % of the
  // arithmetic: assembly, factorisation, elimination).  Backward: read the
  // states back, write the solution into rhs.
  WorkProfile fwd = sweep;
  WorkProfile bwd = sweep;
  fwd.label += "/fwd";
  bwd.label += "/bwd";
  fwd.flops = 0.7 * sweep.flops;
  bwd.flops = 0.3 * sweep.flops;
  // accesses layout from adi_kernel_profiles:
  //   [0] rhs read, [1] u read, [2] lhs write, [3] lhs read, [4] rhs write
  fwd.accesses = {sweep.accesses[0], sweep.accesses[1], sweep.accesses[2]};
  bwd.accesses = {sweep.accesses[3], sweep.accesses[4]};
  return {std::move(fwd), std::move(bwd)};
}

void TimedAdiRank::initialize() { compute_.charge(profiles_.init); }

void TimedAdiRank::copy_faces() {
  // Halo exchange with real payload sizes (contents irrelevant for timing).
  if (layout_.y_prev >= 0) comm_->send<double>(layout_.y_prev, kTagYMinus, yface_);
  if (layout_.y_next >= 0) comm_->send<double>(layout_.y_next, kTagYPlus, yface_);
  if (layout_.z_prev >= 0) comm_->send<double>(layout_.z_prev, kTagZMinus, zface_);
  if (layout_.z_next >= 0) comm_->send<double>(layout_.z_next, kTagZPlus, zface_);
  if (layout_.y_prev >= 0) comm_->recv<double>(layout_.y_prev, kTagYPlus, yface_);
  if (layout_.y_next >= 0) comm_->recv<double>(layout_.y_next, kTagYMinus, yface_);
  if (layout_.z_prev >= 0) comm_->recv<double>(layout_.z_prev, kTagZPlus, zface_);
  if (layout_.z_next >= 0) comm_->recv<double>(layout_.z_next, kTagZMinus, zface_);
  compute_.charge(profiles_.copy_faces);
}

void TimedAdiRank::txinvr() { compute_.charge(profiles_.txinvr.value()); }

void TimedAdiRank::x_solve() { compute_.charge(profiles_.x_solve); }

void TimedAdiRank::sweep(const WorkProfile& fwd, const WorkProfile& bwd,
                         int prev, int next, int tag_fwd, int tag_bwd,
                         std::size_t fwd_doubles, std::size_t bwd_doubles) {
  auto fwd_span = std::span(pipe_buf_).first(fwd_doubles);
  auto bwd_span = std::span(pipe_buf_).first(bwd_doubles);
  // Forward sweep: the pipeline serialisation is real — this rank cannot
  // eliminate before its predecessor's states arrive.
  if (prev >= 0) comm_->recv<double>(prev, tag_fwd, fwd_span);
  compute_.charge(fwd);
  if (next >= 0) comm_->send<double>(next, tag_fwd, fwd_span);
  // Backward sweep in reverse rank order.
  if (next >= 0) comm_->recv<double>(next, tag_bwd, bwd_span);
  compute_.charge(bwd);
  if (prev >= 0) comm_->send<double>(prev, tag_bwd, bwd_span);
}

void TimedAdiRank::y_solve() {
  sweep(y_fwd_, y_bwd_, layout_.y_prev, layout_.y_next, kTagYFwd, kTagYBwd,
        ylines_ * work_.fwd_msg_doubles, ylines_ * work_.bwd_msg_doubles);
}

void TimedAdiRank::z_solve() {
  sweep(z_fwd_, z_bwd_, layout_.z_prev, layout_.z_next, kTagZFwd, kTagZBwd,
        zlines_ * work_.fwd_msg_doubles, zlines_ * work_.bwd_msg_doubles);
}

void TimedAdiRank::add() { compute_.charge(profiles_.add); }

void TimedAdiRank::final_verify() {
  compute_.charge(profiles_.final);
  (void)comm_->allreduce_max(0.0);
}

void TimedAdiRank::reset() { compute_.reset(); }

}  // namespace kcoup::npb

// The timed LU study, kept out of lu_model.cpp so that code using only the
// modeled app links no simmpi runtime.

#include <cstdint>
#include <vector>

#include "npb/common/decomp.hpp"
#include "npb/lu/lu_app.hpp"
#include "npb/lu/lu_model.hpp"

namespace kcoup::npb::lu {
namespace {

constexpr int kTagXPlus = 351, kTagXMinus = 352;
constexpr int kTagYPlus = 353, kTagYMinus = 354;
constexpr int kTagLtCol = 361, kTagLtRow = 362;
constexpr int kTagUtCol = 363, kTagUtRow = 364;

/// Timing-only LU rank: executes the *real* diagonal-pipelined wavefront —
/// one receive/compute/send hand-off per z-plane per sweep, with real
/// payload sizes — while charging machine-priced compute per plane slice.
/// The pipeline fill (px + py - 2 plane-stages) and LU's sensitivity to
/// small-message latency (paper §4.3) emerge from the simulated execution
/// instead of being modeled analytically.  Its kernel methods match
/// LuRank's, so lu_kernels drives it.
class TimedLuRank {
 public:
  TimedLuRank(int n, const TimedOptions& options, simmpi::Comm& comm);

  void initialize();
  void erhs();
  void ssor_init();
  void ssor_iter();
  void ssor_lt();
  void ssor_ut();
  void ssor_rs();
  void error();
  void pintgr();
  void final_verify();
  void reset();

 private:
  void wavefront(const machine::WorkProfile& profile, bool forward,
                 int tag_col, int tag_row);

  simmpi::Comm* comm_;
  PencilDecomp decomp_;
  PencilDecomp::RankLayout layout_;
  int nx_, ny_, nz_;

  TimedCompute compute_;
  LuKernelProfiles profiles_;

  std::vector<double> xface_, yface_, col_buf_, row_buf_;
};

}  // namespace

TimedLuRank::TimedLuRank(int n, const TimedOptions& options,
                         simmpi::Comm& comm)
    : comm_(&comm),
      decomp_(comm.size()),
      layout_(decomp_.layout(comm.rank(), n, n)),
      nx_(layout_.x.count),
      ny_(layout_.y.count),
      nz_(n),
      compute_(options, comm),
      profiles_(lu_kernel_profiles(compute_.machine(), nx_, ny_, nz_)) {
  xface_.assign(static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_) * 5,
                0.0);
  yface_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_) * 5,
                0.0);
  col_buf_.assign(static_cast<std::size_t>(ny_) * 5, 0.0);
  row_buf_.assign(static_cast<std::size_t>(nx_) * 5, 0.0);
}

void TimedLuRank::initialize() { compute_.charge(profiles_.init); }
void TimedLuRank::erhs() { compute_.charge(profiles_.erhs); }
void TimedLuRank::ssor_init() { compute_.charge(profiles_.ssor_init); }

void TimedLuRank::ssor_iter() {
  if (layout_.x_prev >= 0) comm_->send<double>(layout_.x_prev, kTagXMinus, xface_);
  if (layout_.x_next >= 0) comm_->send<double>(layout_.x_next, kTagXPlus, xface_);
  if (layout_.y_prev >= 0) comm_->send<double>(layout_.y_prev, kTagYMinus, yface_);
  if (layout_.y_next >= 0) comm_->send<double>(layout_.y_next, kTagYPlus, yface_);
  if (layout_.x_prev >= 0) comm_->recv<double>(layout_.x_prev, kTagXPlus, xface_);
  if (layout_.x_next >= 0) comm_->recv<double>(layout_.x_next, kTagXMinus, xface_);
  if (layout_.y_prev >= 0) comm_->recv<double>(layout_.y_prev, kTagYPlus, yface_);
  if (layout_.y_next >= 0) comm_->recv<double>(layout_.y_next, kTagYMinus, yface_);
  compute_.charge(profiles_.ssor_iter);
}

void TimedLuRank::wavefront(const machine::WorkProfile& profile, bool forward,
                            int tag_col, int tag_row) {
  // Price the whole sweep once (correct cache-state semantics), then spend
  // it plane by plane, each slice jittered on its own, with the real
  // per-plane message hand-offs.
  const double total = compute_.machine().execute_seconds(profile);
  const double slice = total / static_cast<double>(nz_);
  const std::uint64_t invocation = compute_.next_invocation();
  const int recv_col = forward ? layout_.x_prev : layout_.x_next;
  const int send_col = forward ? layout_.x_next : layout_.x_prev;
  const int recv_row = forward ? layout_.y_prev : layout_.y_next;
  const int send_row = forward ? layout_.y_next : layout_.y_prev;
  for (int step = 0; step < nz_; ++step) {
    const int k = forward ? step : nz_ - 1 - step;
    if (recv_col >= 0) comm_->recv<double>(recv_col, tag_col, col_buf_);
    if (recv_row >= 0) comm_->recv<double>(recv_row, tag_row, row_buf_);
    compute_.charge(slice, profile.kernel,
                    (invocation << 8) ^ static_cast<std::uint64_t>(k));
    if (send_col >= 0) comm_->send<double>(send_col, tag_col, col_buf_);
    if (send_row >= 0) comm_->send<double>(send_row, tag_row, row_buf_);
  }
}

void TimedLuRank::ssor_lt() {
  wavefront(profiles_.ssor_lt, /*forward=*/true, kTagLtCol, kTagLtRow);
}

void TimedLuRank::ssor_ut() {
  wavefront(profiles_.ssor_ut, /*forward=*/false, kTagUtCol, kTagUtRow);
}

void TimedLuRank::ssor_rs() {
  compute_.charge(profiles_.ssor_rs);
  (void)comm_->allreduce_sum(0.0);  // Newton-residual reduction
}

void TimedLuRank::error() {
  compute_.charge(profiles_.error);
  (void)comm_->allreduce_max(0.0);
}

void TimedLuRank::pintgr() {
  compute_.charge(profiles_.pintgr);
  (void)comm_->allreduce_sum(0.0);
}

void TimedLuRank::final_verify() {
  compute_.charge(profiles_.final);
  (void)comm_->allreduce_sum(0.0);
}

void TimedLuRank::reset() { compute_.reset(); }

coupling::ParallelStudyResult run_lu_parallel_study(
    int n, int iterations, int ranks, const TimedOptions& options,
    const coupling::StudyOptions& study) {
  check_timed_grid(Benchmark::kLU, n, ranks);
  return coupling::run_simmpi_study(
      ranks, options.network(), [&](simmpi::Comm& comm) {
        TimedLuRank rank(n, options, comm);
        coupling::ParallelLoopApp app = lu_kernels(rank, iterations);
        app.reset = [&rank] { rank.reset(); };
        return coupling::run_parallel_study(comm, app, study);
      });
}

}  // namespace kcoup::npb::lu

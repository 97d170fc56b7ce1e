#include "npb/lu/lu_model.hpp"

#include <algorithm>

#include "npb/common/decomp.hpp"

namespace kcoup::npb::lu {
namespace {

using machine::AccessKind;
using machine::MessageOp;
using machine::RegionAccess;
using machine::RegionId;
using machine::WorkProfile;

enum LuKernel : machine::KernelId {
  kInit = 0,
  kErhs,
  kSsorInit,
  kSsorIter,
  kSsorLt,
  kSsorUt,
  kSsorRs,
  kError,
  kPintgr,
  kFinal,
};

/// LU's work per grid point, counted from the numeric port in lu_app.cpp.
struct LuWork {
  double flops_rhs_per_point = 135;   ///< ssor_iter
  double flops_lt_per_point = 365;    ///< jacobian + lower wavefront solve
  double flops_ut_per_point = 415;    ///< + the extra D*delta matvec
  double flops_rs_per_point = 15;
  double flops_init_per_point = 100;
  double flops_erhs_per_point = 215;
  double flops_error_per_point = 60;
  double flops_final_per_point = 70;
  std::size_t comp_bytes = 5 * sizeof(double);
};
constexpr LuWork kLuWork{};

/// Fraction of the producer's plane-sequential stream still pipeline-warm
/// when a wavefront-ordered sweep reaches it (the sweeps visit points in
/// diagonal order, not the order their producer wrote them).
constexpr double kWavefrontFresh = 0.25;

}  // namespace

LuKernelProfiles lu_kernel_profiles(machine::Machine& m, int nx, int ny,
                                    int nz) {
  const auto pts = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                   static_cast<std::size_t>(nz);
  const double fpts = static_cast<double>(pts);
  const std::size_t field_bytes = pts * kLuWork.comp_bytes;
  const auto stages = static_cast<std::size_t>(std::max(2, nz));

  const RegionId u = m.register_region("u", field_bytes);
  const RegionId rsd = m.register_region("rsd", field_bytes);
  const RegionId frct = m.register_region("frct", field_bytes);
  const RegionId exact_tmp = m.register_region("exact_tmp", field_bytes);

  LuKernelProfiles p;

  p.init.label = "Initialization";
  p.init.kernel = kInit;
  p.init.flops = kLuWork.flops_init_per_point * fpts;
  p.init.accesses = {RegionAccess{u, AccessKind::kWrite, field_bytes}};
  p.init.pipeline_stages = stages;

  p.erhs.label = "Erhs";
  p.erhs.kernel = kErhs;
  p.erhs.flops = kLuWork.flops_erhs_per_point * fpts;
  p.erhs.accesses = {
      RegionAccess{exact_tmp, AccessKind::kWrite, field_bytes},
      RegionAccess{exact_tmp, AccessKind::kRead, field_bytes},
      RegionAccess{frct, AccessKind::kWrite, field_bytes},
  };
  p.erhs.pipeline_stages = stages;

  p.ssor_init.label = "Ssor_Init";
  p.ssor_init.kernel = kSsorInit;
  p.ssor_init.flops = fpts;  // zeroing + constants
  p.ssor_init.accesses = {RegionAccess{rsd, AccessKind::kWrite, field_bytes}};
  p.ssor_init.pipeline_stages = stages;

  p.ssor_iter.label = "Ssor_Iter";
  p.ssor_iter.kernel = kSsorIter;
  p.ssor_iter.flops = kLuWork.flops_rhs_per_point * fpts;
  p.ssor_iter.accesses = {
      RegionAccess{u, AccessKind::kRead, field_bytes, 1.0},
      RegionAccess{frct, AccessKind::kRead, field_bytes},
      RegionAccess{rsd, AccessKind::kWrite, field_bytes},
  };
  p.ssor_iter.pipeline_stages = stages;

  auto make_sweep = [&](const char* label, machine::KernelId id,
                        double flops_per_point) {
    WorkProfile s;
    s.label = label;
    s.kernel = id;
    s.flops = flops_per_point * fpts;
    // The sweep updates rsd in place (read + write interleaved) and reads u
    // for the jacobian diagonal; wavefront order limits pipelined reuse.
    s.accesses = {
        RegionAccess{rsd, AccessKind::kRead, field_bytes, kWavefrontFresh},
        RegionAccess{u, AccessKind::kRead, field_bytes, kWavefrontFresh},
        RegionAccess{rsd, AccessKind::kWrite, field_bytes},
    };
    s.pipeline_stages = stages;
    return s;
  };
  p.ssor_lt = make_sweep("Ssor_LT", kSsorLt, kLuWork.flops_lt_per_point);
  p.ssor_ut = make_sweep("Ssor_UT", kSsorUt, kLuWork.flops_ut_per_point);

  p.ssor_rs.label = "Ssor_RS";
  p.ssor_rs.kernel = kSsorRs;
  p.ssor_rs.flops = kLuWork.flops_rs_per_point * fpts;
  p.ssor_rs.accesses = {
      RegionAccess{rsd, AccessKind::kRead, field_bytes, 1.0},
      RegionAccess{u, AccessKind::kRead, field_bytes},
      RegionAccess{u, AccessKind::kWrite, field_bytes},
  };
  p.ssor_rs.pipeline_stages = stages;

  p.error.label = "Error";
  p.error.kernel = kError;
  p.error.flops = kLuWork.flops_error_per_point * fpts;
  p.error.accesses = {RegionAccess{u, AccessKind::kRead, field_bytes}};
  p.error.pipeline_stages = stages;

  p.pintgr.label = "Pintgr";
  p.pintgr.kernel = kPintgr;
  const auto face_pts =
      2 * static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  p.pintgr.flops = 20.0 * static_cast<double>(face_pts);
  p.pintgr.accesses = {
      RegionAccess{u, AccessKind::kRead, face_pts * sizeof(double)}};
  p.pintgr.pipeline_stages = 2;

  p.final.label = "Final";
  p.final.kernel = kFinal;
  p.final.flops = kLuWork.flops_final_per_point * fpts;
  p.final.accesses = {
      RegionAccess{u, AccessKind::kRead, field_bytes},
      RegionAccess{frct, AccessKind::kRead, field_bytes},
  };
  p.final.pipeline_stages = stages;

  return p;
}

std::unique_ptr<ModeledApp> make_modeled_lu_grid(
    int n, int iterations, int ranks, machine::MachineConfig config) {
  PencilDecomp decomp(ranks);
  config.ranks = ranks;
  auto modeled = std::make_unique<ModeledApp>(
      "LU n=" + std::to_string(n) + " P=" + std::to_string(ranks),
      std::move(config), iterations);

  const int px = decomp.px(), py = decomp.py();
  const int nx = split_range(n, px, 0).count;
  const int ny = split_range(n, py, 0).count;
  const int nz = n;
  LuKernelProfiles p = lu_kernel_profiles(modeled->machine(), nx, ny, nz);

  const std::size_t xface_bytes = static_cast<std::size_t>(ny) *
                                  static_cast<std::size_t>(nz) *
                                  kLuWork.comp_bytes;
  const std::size_t yface_bytes = static_cast<std::size_t>(nx) *
                                  static_cast<std::size_t>(nz) *
                                  kLuWork.comp_bytes;
  // Per-plane wavefront messages: one column (ny points) east, one row
  // (nx points) north, per z-plane, plus the pipeline-fill hand-offs.
  const std::size_t col_bytes =
      static_cast<std::size_t>(ny) * kLuWork.comp_bytes;
  const std::size_t row_bytes =
      static_cast<std::size_t>(nx) * kLuWork.comp_bytes;
  const auto fill_msgs = static_cast<std::size_t>(std::max(0, px + py - 2));

  modeled->add_prologue(std::move(p.init));
  modeled->add_prologue(std::move(p.erhs));
  modeled->add_prologue(std::move(p.ssor_init));

  if (ranks > 1) {
    p.ssor_iter.messages = {MessageOp{px > 1 ? 2u : 0u, xface_bytes},
                            MessageOp{py > 1 ? 2u : 0u, yface_bytes}};
    p.ssor_iter.synchronizes = true;
    p.ssor_iter.imbalance_weight = 1.0;
  }
  modeled->add_loop_kernel(std::move(p.ssor_iter));

  auto add_sweep = [&](WorkProfile s) {
    if (ranks > 1) {
      const auto nzs = static_cast<std::size_t>(nz);
      s.messages = {
          MessageOp{px > 1 ? nzs : 0u, col_bytes},
          MessageOp{py > 1 ? nzs : 0u, row_bytes},
          MessageOp{fill_msgs, (col_bytes + row_bytes) / 2},
      };
      s.synchronizes = true;
      s.imbalance_weight = 1.0;
    }
    modeled->add_loop_kernel(std::move(s));
  };
  add_sweep(std::move(p.ssor_lt));
  add_sweep(std::move(p.ssor_ut));

  if (ranks > 1) {
    p.ssor_rs.synchronizes = true;  // Newton-residual allreduce
    p.ssor_rs.imbalance_weight = 0.5;
  }
  modeled->add_loop_kernel(std::move(p.ssor_rs));

  if (ranks > 1) p.error.synchronizes = true;
  modeled->add_epilogue(std::move(p.error));
  if (ranks > 1) p.pintgr.synchronizes = true;
  modeled->add_epilogue(std::move(p.pintgr));
  if (ranks > 1) {
    p.final.messages = {MessageOp{px > 1 ? 2u : 0u, xface_bytes},
                        MessageOp{py > 1 ? 2u : 0u, yface_bytes}};
    p.final.synchronizes = true;
  }
  modeled->add_epilogue(std::move(p.final));

  return modeled;
}

std::unique_ptr<ModeledApp> make_modeled_lu(ProblemClass cls, int ranks,
                                            machine::MachineConfig config) {
  const ProblemSize size = problem_size(Benchmark::kLU, cls);
  return make_modeled_lu_grid(size.n, size.iterations, ranks,
                              std::move(config));
}

}  // namespace kcoup::npb::lu

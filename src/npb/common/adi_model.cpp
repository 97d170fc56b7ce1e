#include "npb/common/adi_model.hpp"

#include <algorithm>
#include <string>

#include "npb/common/decomp.hpp"

namespace kcoup::npb {
namespace {

using machine::AccessKind;
using machine::MessageOp;
using machine::RegionAccess;
using machine::RegionId;
using machine::WorkProfile;

// One grid point of a 5-component field.
constexpr std::size_t kPointBytes = 5 * sizeof(double);

}  // namespace

AdiKernelProfiles adi_kernel_profiles(machine::Machine& m, int nx, int ny,
                                      int nz, const AdiWork& work) {
  const auto pts = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                   static_cast<std::size_t>(nz);
  const double fpts = static_cast<double>(pts);
  const std::size_t field_bytes = pts * kPointBytes;
  const auto stages = static_cast<std::size_t>(std::max(2, nz));

  // Regions, mirroring the ranks' arrays.  The x-sweep reuses one line of
  // scratch; the distributed y/z sweeps keep per-point elimination states
  // between their forward and backward phases (states_ in the ports).
  const RegionId u = m.register_region("u", field_bytes);
  const RegionId rhs = m.register_region("rhs", field_bytes);
  const RegionId forcing = m.register_region("forcing", field_bytes);
  const RegionId exact_tmp = m.register_region("exact_tmp", field_bytes);
  const RegionId lhs_x = m.register_region(
      "lhs_x", static_cast<std::size_t>(nx) * work.x_state_bytes);
  const RegionId lhs_y = m.register_region("lhs_y", pts * work.state_bytes);
  const RegionId lhs_z = m.register_region("lhs_z", pts * work.state_bytes);

  // Kernel identities (data-flow freshness, skew patterns): program order.
  machine::KernelId next_id = 0;
  AdiKernelProfiles p;

  p.init.label = "Initialization";
  p.init.kernel = next_id++;
  p.init.flops = work.flops_init_per_point * fpts;
  p.init.accesses = {
      RegionAccess{u, AccessKind::kWrite, field_bytes},
      RegionAccess{exact_tmp, AccessKind::kWrite, field_bytes},
      RegionAccess{exact_tmp, AccessKind::kRead, field_bytes},
      RegionAccess{forcing, AccessKind::kWrite, field_bytes},
  };
  p.init.pipeline_stages = stages;

  p.copy_faces.label = "Copy_Faces";
  p.copy_faces.kernel = next_id++;
  p.copy_faces.flops = work.flops_rhs_per_point * fpts;
  p.copy_faces.accesses = {
      RegionAccess{u, AccessKind::kRead, field_bytes, 1.0},
      RegionAccess{forcing, AccessKind::kRead, field_bytes},
      RegionAccess{rhs, AccessKind::kWrite, field_bytes},
  };
  p.copy_faces.pipeline_stages = stages;

  if (work.flops_txinvr_per_point) {
    WorkProfile& t = p.txinvr.emplace();
    t.label = "Txinvr";
    t.kernel = next_id++;
    t.flops = *work.flops_txinvr_per_point * fpts;
    t.accesses = {
        RegionAccess{rhs, AccessKind::kRead, field_bytes, 1.0},
        RegionAccess{rhs, AccessKind::kWrite, field_bytes},
    };
    t.pipeline_stages = stages;
  }

  auto make_solve = [&](const char* label, RegionId lhs) {
    WorkProfile s;
    s.label = label;
    s.kernel = next_id++;
    s.flops = work.flops_solve_per_point * fpts;
    // The backward sweep walks lines in the reverse of the forward sweep's
    // order (the ports do the same), so the state read-back is pipelined.
    RegionAccess lhs_read{lhs, AccessKind::kRead, pts * work.state_bytes};
    lhs_read.pipelined_self_reuse = true;
    s.accesses = {
        RegionAccess{rhs, AccessKind::kRead, field_bytes, 1.0},
        RegionAccess{u, AccessKind::kRead, field_bytes, 1.0},
        RegionAccess{lhs, AccessKind::kWrite, pts * work.state_bytes},
        lhs_read,
        RegionAccess{rhs, AccessKind::kWrite, field_bytes},
    };
    s.pipeline_stages = stages;
    return s;
  };
  p.x_solve = make_solve("X_Solve", lhs_x);
  p.y_solve = make_solve("Y_Solve", lhs_y);
  p.z_solve = make_solve("Z_Solve", lhs_z);

  p.add.label = "Add";
  p.add.kernel = next_id++;
  p.add.flops = work.flops_add_per_point * fpts;
  p.add.accesses = {
      RegionAccess{rhs, AccessKind::kRead, field_bytes, 1.0},
      RegionAccess{u, AccessKind::kRead, field_bytes, 1.0},
      RegionAccess{u, AccessKind::kWrite, field_bytes},
  };
  p.add.pipeline_stages = stages;

  p.final.label = "Final";
  p.final.kernel = next_id++;
  p.final.flops = work.flops_final_per_point * fpts;
  p.final.accesses = {RegionAccess{u, AccessKind::kRead, field_bytes}};
  p.final.pipeline_stages = stages;

  return p;
}

std::unique_ptr<ModeledApp> make_modeled_adi(const AdiWork& work, int n,
                                             int iterations, int ranks,
                                             machine::MachineConfig config) {
  SquareDecomp decomp(ranks);  // validates squareness
  config.ranks = ranks;
  auto modeled = std::make_unique<ModeledApp>(
      to_string(work.benchmark) + " n=" + std::to_string(n) +
          " P=" + std::to_string(ranks),
      std::move(config), iterations);

  // Representative interior rank: the largest subdomain (rank 0 holds the
  // remainder) with the full neighbour count; the simulated makespan is set
  // by the slowest rank.
  const int q = decomp.q();
  const int nx = n;
  const int ny = split_range(n, q, 0).count;
  const int nz = split_range(n, q, 0).count;
  AdiKernelProfiles p = adi_kernel_profiles(modeled->machine(), nx, ny, nz,
                                            work);

  const std::size_t yface_bytes =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(nz) * kPointBytes;
  const std::size_t zface_bytes =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) * kPointBytes;
  const std::size_t ylines =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(nz);
  const std::size_t zlines =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);

  modeled->add_prologue(std::move(p.init));

  if (q > 1) {
    p.copy_faces.messages = {MessageOp{2, yface_bytes},
                             MessageOp{2, zface_bytes}};
    p.copy_faces.synchronizes = true;
    p.copy_faces.imbalance_weight = 1.0;
  }
  modeled->add_loop_kernel(std::move(p.copy_faces));
  if (p.txinvr) modeled->add_loop_kernel(std::move(*p.txinvr));
  modeled->add_loop_kernel(std::move(p.x_solve));

  auto add_distributed_solve = [&](WorkProfile s, std::size_t lines) {
    if (q > 1) {
      s.messages = {
          MessageOp{1, lines * work.fwd_msg_doubles * sizeof(double)},
          MessageOp{1, lines * work.bwd_msg_doubles * sizeof(double)},
      };
      s.synchronizes = true;
      s.imbalance_weight = 1.0;
    }
    modeled->add_loop_kernel(std::move(s));
  };
  add_distributed_solve(std::move(p.y_solve), ylines);
  add_distributed_solve(std::move(p.z_solve), zlines);

  modeled->add_loop_kernel(std::move(p.add));

  if (ranks > 1) {
    p.final.synchronizes = true;  // global verification reduction
    p.final.imbalance_weight = 0.5;
  }
  modeled->add_epilogue(std::move(p.final));

  return modeled;
}

}  // namespace kcoup::npb

#include "coupling/synthetic.hpp"

#include <random>
#include <stdexcept>
#include <string>

namespace kcoup::coupling {

std::unique_ptr<ModeledApp> make_synthetic_app(
    const SyntheticAppSpec& spec, machine::MachineConfig machine_config) {
  if (spec.kernels < 2) {
    throw std::invalid_argument("synthetic app: need at least 2 kernels");
  }
  if (spec.regions < spec.kernels) {
    throw std::invalid_argument(
        "synthetic app: need at least one region per kernel");
  }
  machine_config.ranks = spec.ranks;
  auto modeled = std::make_unique<ModeledApp>(
      "synthetic(seed=" + std::to_string(spec.seed) + ")",
      std::move(machine_config), spec.iterations);

  std::mt19937 rng(spec.seed);
  std::uniform_int_distribution<std::size_t> size_dist(spec.min_region_bytes,
                                                       spec.max_region_bytes);
  std::uniform_real_distribution<double> flops_dist(spec.min_flops,
                                                    spec.max_flops);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::vector<machine::RegionId> regions;
  std::vector<std::size_t> region_bytes;
  for (std::size_t r = 0; r < spec.regions; ++r) {
    region_bytes.push_back(size_dist(rng));
    std::string name = "r";
    name += std::to_string(r);
    regions.push_back(modeled->region(std::move(name), region_bytes.back()));
  }

  // Each kernel k writes region k (mod pool); kernel k reads the previous
  // kernel's output (guaranteed adjacent data-flow) plus 1-2 random others.
  std::uniform_int_distribution<std::size_t> pick(0, spec.regions - 1);
  for (std::size_t k = 0; k < spec.kernels; ++k) {
    machine::WorkProfile p;
    p.label = "K";
    p.label += std::to_string(k);
    p.kernel = static_cast<machine::KernelId>(k);
    p.flops = flops_dist(rng);
    p.pipeline_stages = spec.pipeline_stages;

    const std::size_t prev_out = (k + spec.kernels - 1) % spec.kernels;
    machine::RegionAccess in0{regions[prev_out], machine::AccessKind::kRead,
                              region_bytes[prev_out]};
    if (unit(rng) < spec.fresh_probability) in0.fresh_fraction = unit(rng);
    p.accesses.push_back(in0);

    const std::size_t extra_inputs = 1 + (rng() % 2);
    for (std::size_t i = 0; i < extra_inputs; ++i) {
      const std::size_t r = pick(rng);
      machine::RegionAccess in{regions[r], machine::AccessKind::kRead,
                               region_bytes[r]};
      if (unit(rng) < spec.fresh_probability) in.fresh_fraction = unit(rng);
      p.accesses.push_back(in);
    }
    p.accesses.push_back(machine::RegionAccess{
        regions[k % spec.regions], machine::AccessKind::kWrite,
        region_bytes[k % spec.regions]});

    if (spec.ranks > 1 && unit(rng) < spec.message_probability) {
      const std::size_t count = 1 + rng() % 4;
      const std::size_t bytes = 1024 + rng() % (64 * 1024);
      p.messages.push_back(machine::MessageOp{count, bytes});
    }
    if (spec.ranks > 1 && unit(rng) < spec.sync_probability) {
      p.synchronizes = true;
      p.imbalance_weight = unit(rng);
    }
    modeled->add_loop_kernel(std::move(p));
  }

  return modeled;
}

}  // namespace kcoup::coupling

#include "npb/sp/sp_model.hpp"

namespace kcoup::npb::sp {

std::unique_ptr<ModeledApp> make_modeled_sp_grid(
    int n, int iterations, int ranks, machine::MachineConfig config) {
  return make_modeled_adi(kSpWork, n, iterations, ranks, std::move(config));
}

std::unique_ptr<ModeledApp> make_modeled_sp(ProblemClass cls, int ranks,
                                            machine::MachineConfig config) {
  const ProblemSize size = problem_size(Benchmark::kSP, cls);
  return make_modeled_sp_grid(size.n, size.iterations, ranks,
                              std::move(config));
}

}  // namespace kcoup::npb::sp

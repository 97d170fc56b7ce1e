#include "npb/bt/bt_model.hpp"

namespace kcoup::npb::bt {

std::unique_ptr<ModeledApp> make_modeled_bt_grid(
    int n, int iterations, int ranks, machine::MachineConfig config) {
  return make_modeled_adi(kBtWork, n, iterations, ranks, std::move(config));
}

std::unique_ptr<ModeledApp> make_modeled_bt(ProblemClass cls, int ranks,
                                            machine::MachineConfig config) {
  const ProblemSize size = problem_size(Benchmark::kBT, cls);
  return make_modeled_bt_grid(size.n, size.iterations, ranks,
                              std::move(config));
}

}  // namespace kcoup::npb::bt

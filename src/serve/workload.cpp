#include "serve/workload.hpp"

#include <memory>
#include <stdexcept>

#include "coupling/study.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/common/problem.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"

namespace kcoup::serve {

std::unique_ptr<coupling::ModeledApp> make_modeled_app(
    npb::Benchmark bench, npb::ProblemClass cls, int ranks,
    const machine::MachineConfig& cfg) {
  switch (bench) {
    case npb::Benchmark::kBT: return npb::bt::make_modeled_bt(cls, ranks, cfg);
    case npb::Benchmark::kSP: return npb::sp::make_modeled_sp(cls, ranks, cfg);
    case npb::Benchmark::kLU: return npb::lu::make_modeled_lu(cls, ranks, cfg);
  }
  throw std::logic_error("make_modeled_app: unknown benchmark");
}

std::optional<std::pair<std::string, std::string>> NpbWorkload::canonical(
    const std::string& application, const std::string& config) const {
  const auto bench = npb::parse_benchmark(application);
  const auto cls = npb::parse_class(config);
  if (!bench || !cls) return std::nullopt;
  return std::make_pair(npb::to_string(*bench), npb::to_string(*cls));
}

bool NpbWorkload::valid_cell(const std::string& application,
                             const std::string& config, int ranks) const {
  const auto bench = npb::parse_benchmark(application);
  const auto cls = npb::parse_class(config);
  return bench && cls && npb::valid_rank_count(*bench, ranks);
}

CellInputs NpbWorkload::measure_cell(const std::string& application,
                                     const std::string& config,
                                     int ranks) const {
  const auto bench = npb::parse_benchmark(application);
  const auto cls = npb::parse_class(config);
  if (!bench || !cls || !npb::valid_rank_count(*bench, ranks)) {
    throw std::invalid_argument("NpbWorkload::measure_cell: invalid cell " +
                                application + "/" + config + "/P=" +
                                std::to_string(ranks));
  }
  const auto modeled = make_modeled_app(*bench, *cls, ranks, machine_);
  // A chain-free study: the same planner/executor/assembly as a campaign
  // cell, so every value here is bit-identical to what run_study() computes
  // for the cell — the serving layer only skips the expensive chains.
  coupling::StudyOptions options;
  options.measurement = measurement_;
  const coupling::StudyResult r = coupling::run_study(modeled->app(), options);

  CellInputs cell;
  cell.inputs.isolated_means = r.isolated_means;
  cell.inputs.prologue_s = r.prologue_s;
  cell.inputs.epilogue_s = r.epilogue_s;
  cell.inputs.iterations = modeled->app().iterations;
  cell.actual_s = r.actual_s;
  cell.summation_s = r.summation_s;
  cell.loop_size = modeled->app().loop_size();
  cell.grid_extent = static_cast<double>(npb::problem_size(*bench, *cls).n);
  return cell;
}

std::optional<CellShape> NpbWorkload::shape(const std::string& application,
                                            const std::string& config) const {
  const auto bench = npb::parse_benchmark(application);
  const auto cls = npb::parse_class(config);
  if (!bench || !cls) return std::nullopt;
  const npb::ProblemSize size = npb::problem_size(*bench, *cls);
  return CellShape{static_cast<double>(size.n), size.iterations};
}

}  // namespace kcoup::serve

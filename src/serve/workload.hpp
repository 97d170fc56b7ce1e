#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "coupling/analysis.hpp"
#include "coupling/measurement.hpp"
#include "coupling/modeled_app.hpp"
#include "machine/config.hpp"
#include "npb/common/problem.hpp"

namespace kcoup::serve {

/// Everything the query engine needs about one (application, config, ranks)
/// cell that does not come from the coupling database: the cheap isolated
/// measurements (the paper's N per-kernel loops), the one-shot kernels, and
/// the shape.  Produced once per cell and memoized — the expensive chain
/// measurements stay in the database.
struct CellInputs {
  coupling::PredictionInputs inputs;  ///< isolated means, prologue/epilogue, I
  double actual_s = 0.0;              ///< full-application run, for error cols
  double summation_s = 0.0;           ///< baseline prediction (paper §4.1)
  std::size_t loop_size = 0;
  double grid_extent = 0.0;           ///< n, for the scaling-model basis
};

/// Static shape of a configuration, obtainable without measuring (used by
/// the scaling-model fallback for configurations that cannot run at all).
struct CellShape {
  double grid_extent = 0.0;
  int iterations = 1;
};

/// The application universe a prediction service can measure.  Implemented
/// over the modeled NPB suite for `kcoup serve`; tests plug in synthetic
/// deterministic applications.  All methods must be safe to call
/// concurrently: server workers and the snapshot re-fit path measure cells
/// in parallel.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Canonical (application, config) spelling, or nullopt when the pair
  /// is unknown to this workload (e.g. "bt"/"w" -> ("BT", "W") — the
  /// spelling the campaign writes into the coupling database).
  [[nodiscard]] virtual std::optional<std::pair<std::string, std::string>>
  canonical(const std::string& application, const std::string& config) const {
    return std::make_pair(application, config);
  }

  /// True iff the cell can be instantiated and measured (e.g. BT requires a
  /// square rank count).
  [[nodiscard]] virtual bool valid_cell(const std::string& application,
                                        const std::string& config,
                                        int ranks) const = 0;

  /// Measure one cell: isolated means, prologue/epilogue, actual, summation
  /// — everything a study produces except chains.  Throws on unknown or
  /// invalid cells.
  [[nodiscard]] virtual CellInputs measure_cell(const std::string& application,
                                                const std::string& config,
                                                int ranks) const = 0;

  /// Shape of a configuration without measuring it, or nullopt when the
  /// (application, config) pair is unknown.
  [[nodiscard]] virtual std::optional<CellShape> shape(
      const std::string& application, const std::string& config) const = 0;
};

/// One modeled NPB application instance — the factory NpbWorkload and
/// `kcoup` build every modeled cell with.
[[nodiscard]] std::unique_ptr<coupling::ModeledApp> make_modeled_app(
    npb::Benchmark bench, npb::ProblemClass cls, int ranks,
    const machine::MachineConfig& cfg);

/// The modeled NPB suite (BT/SP/LU x S/W/A/B on a machine config) — the
/// same universe `kcoup campaign` sweeps, so a campaign-produced database
/// and this workload agree bit-for-bit on every measured value.
class NpbWorkload final : public Workload {
 public:
  explicit NpbWorkload(machine::MachineConfig machine,
                       coupling::MeasurementOptions measurement = {})
      : machine_(std::move(machine)), measurement_(measurement) {}

  [[nodiscard]] std::optional<std::pair<std::string, std::string>> canonical(
      const std::string& application,
      const std::string& config) const override;
  [[nodiscard]] bool valid_cell(const std::string& application,
                                const std::string& config,
                                int ranks) const override;
  [[nodiscard]] CellInputs measure_cell(const std::string& application,
                                        const std::string& config,
                                        int ranks) const override;
  [[nodiscard]] std::optional<CellShape> shape(
      const std::string& application, const std::string& config) const override;

 private:
  machine::MachineConfig machine_;
  coupling::MeasurementOptions measurement_;
};

}  // namespace kcoup::serve

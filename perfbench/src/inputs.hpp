#pragma once

// Seeded input generation.  Everything a workload feeds the product — the
// campaign sweep, the bulk records appended to the fallback database, the
// query plans and the probe set — is a pure function of the seed, so the
// same seed always yields byte-identical input files.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "coupling/database.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

/// Queries in a serve workload's plan.
inline constexpr std::size_t kPlanSize = 4096;
/// Synthetic applications appended to the fallback database: 14 x 240
/// records on top of the ~500 measured ones.
inline constexpr int kBulkApps = 14;

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// One (application, config, ranks) cell of the modeled NPB suite.
struct Cell {
  std::string application;  ///< "BT" | "SP" | "LU"
  std::string config;       ///< "S" | "W" | "A" | "B"
  int ranks = 1;
};

/// The serve workloads' sweep: BT/SP/LU x S/W/A/B, each application at a
/// seeded choice of four of its eight valid rank counts.
[[nodiscard]] std::vector<Cell> serve_sweep(std::uint64_t seed);

/// The recalibrate workload's sweep: 24 cells, per application classes W
/// and A at a seeded choice of four valid rank counts.
[[nodiscard]] std::vector<Cell> recalibrate_sweep(std::uint64_t seed);

/// A campaign over `cells` at chain lengths {2, 3} on the modeled IBM SP.
[[nodiscard]] kcoup::campaign::CampaignSpec campaign_spec(
    const std::vector<Cell>& cells);

/// Append `apps` synthetic applications ("ZZ00", ...), each with complete
/// chain groups at 4 configs x 6 rank counts x q in {2, 3} (240 records per
/// application) and seeded chain/isolated times.  The query workload never
/// asks for them; they only make the database as large as a long-lived
/// production store, which is what the nearest-donor scan pays for.
void add_bulk_groups(kcoup::coupling::CouplingDatabase& db, std::uint64_t seed,
                     int apps);

/// `n` queries drawn uniformly from the sweep's exact (cell, q) groups.
[[nodiscard]] std::vector<kcoup::serve::QueryKey> exact_plan(
    const std::vector<Cell>& sweep, std::uint64_t seed, std::size_t n);

/// `n` queries, alternating between cells the sweep lacks but the workload
/// can measure (answered by a nearest-ranks donor) and cells that cannot run
/// at all (answered by the fitted models), so each kind is half the plan.
[[nodiscard]] std::vector<kcoup::serve::QueryKey> fallback_plan(
    const std::vector<Cell>& sweep, std::uint64_t seed, std::size_t n);

/// The recalibrate cycle's fixed probe set: 16 exact, 8 nearest-donor and
/// 8 model queries over the sweep.
[[nodiscard]] std::vector<kcoup::serve::QueryKey> probe_set(
    const std::vector<Cell>& sweep, std::uint64_t seed);

/// One query per line, "APP CONFIG RANKS CHAIN" — the plan's file form.
[[nodiscard]] std::string plan_text(
    const std::vector<kcoup::serve::QueryKey>& plan);

}  // namespace perfbench

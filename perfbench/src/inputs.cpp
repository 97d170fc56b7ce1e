#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"

namespace perfbench {

namespace {

using kcoup::serve::QueryKey;

const char* const kApps[] = {"BT", "SP", "LU"};
const char* const kConfigs[] = {"S", "W", "A", "B"};

/// Rank counts each application can run at: squares for BT and SP, powers
/// of two for LU (npb::valid_rank_count).
std::vector<int> valid_ranks(const std::string& app) {
  if (app == "LU") return {1, 2, 4, 8, 16, 32, 64, 128};
  return {1, 4, 9, 16, 25, 36, 49, 64};
}

/// Rank counts the application cannot run at — the model-fallback cells.
std::vector<int> invalid_ranks(const std::string& app) {
  if (app == "LU") return {3, 5, 6, 12, 24, 48};
  return {2, 3, 5, 6, 8, 12, 18, 32};
}

/// Four of the application's eight valid rank counts, one from each
/// ascending pair: every seed picks a different set, but each set spans
/// small to large counts alike, so the seed changes which cells are
/// measured and served, not how much work that is.
std::vector<int> seeded_ranks(const std::string& app, Rng& rng) {
  const std::vector<int> all = valid_ranks(app);
  std::vector<int> out;
  for (std::size_t pair = 0; pair + 1 < all.size(); pair += 2) {
    out.push_back(all[pair + rng.below(2)]);
  }
  return out;
}

kcoup::npb::ProblemClass parse_class(const std::string& config) {
  if (config == "S") return kcoup::npb::ProblemClass::kS;
  if (config == "W") return kcoup::npb::ProblemClass::kW;
  if (config == "A") return kcoup::npb::ProblemClass::kA;
  return kcoup::npb::ProblemClass::kB;
}

std::unique_ptr<kcoup::npb::ModeledApp> make_app(const Cell& cell) {
  const auto cls = parse_class(cell.config);
  const auto machine = kcoup::machine::ibm_sp_p2sc();
  if (cell.application == "BT") {
    return kcoup::npb::bt::make_modeled_bt(cls, cell.ranks, machine);
  }
  if (cell.application == "SP") {
    return kcoup::npb::sp::make_modeled_sp(cls, cell.ranks, machine);
  }
  return kcoup::npb::lu::make_modeled_lu(cls, cell.ranks, machine);
}

/// True when the sweep measured `app` at `config` (at any rank count).
bool swept(const std::vector<Cell>& sweep, const std::string& app,
           const std::string& config, int ranks = 0) {
  return std::any_of(sweep.begin(), sweep.end(), [&](const Cell& c) {
    return c.application == app && c.config == config &&
           (ranks == 0 || c.ranks == ranks);
  });
}

/// Cells of the universe the sweep does not hold but the workload can
/// measure (each answered through a nearest-ranks donor).
std::vector<Cell> donor_cells(const std::vector<Cell>& sweep) {
  std::vector<Cell> out;
  for (const char* app : kApps) {
    for (const char* config : kConfigs) {
      if (!swept(sweep, app, config)) continue;
      for (const int p : valid_ranks(app)) {
        if (!swept(sweep, app, config, p)) out.push_back({app, config, p});
      }
    }
  }
  return out;
}

/// Cells that cannot run, at swept (application, config) pairs so donor
/// chains exist (answered by the application's fitted models).
std::vector<Cell> model_cells(const std::vector<Cell>& sweep) {
  std::vector<Cell> out;
  for (const char* app : kApps) {
    for (const char* config : kConfigs) {
      if (!swept(sweep, app, config)) continue;
      for (const int p : invalid_ranks(app)) out.push_back({app, config, p});
    }
  }
  return out;
}

QueryKey query_at(const Cell& c, std::size_t chain) {
  return QueryKey{c.application, c.config, c.ranks, chain};
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Cell> serve_sweep(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<Cell> cells;
  for (const char* app : kApps) {
    const std::vector<int> ranks = seeded_ranks(app, rng);
    for (const char* config : kConfigs) {
      for (const int p : ranks) cells.push_back({app, config, p});
    }
  }
  return cells;
}

std::vector<Cell> recalibrate_sweep(std::uint64_t seed) {
  // Same shape for every seed: per application classes W and A (a cell's
  // cost follows its class's iteration count) at seeded_ranks.
  Rng rng(seed ^ 0xca11b4a7eULL);
  std::vector<Cell> cells;
  for (const char* app : kApps) {
    const std::vector<int> ranks = seeded_ranks(app, rng);
    for (const char* config : {"W", "A"}) {
      for (const int p : ranks) cells.push_back({app, config, p});
    }
  }
  return cells;
}

kcoup::campaign::CampaignSpec campaign_spec(const std::vector<Cell>& cells) {
  kcoup::campaign::CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  for (const Cell& cell : cells) {
    kcoup::campaign::CampaignStudy study;
    study.application = cell.application;
    study.config = cell.config;
    study.ranks = cell.ranks;
    study.factory = [cell] { return kcoup::campaign::own_app(make_app(cell)); };
    spec.studies.push_back(std::move(study));
  }
  return spec;
}

void add_bulk_groups(kcoup::coupling::CouplingDatabase& db,
                     std::uint64_t seed, int apps) {
  constexpr std::size_t kLoop = 5;
  const int ranks_list[] = {1, 2, 4, 8, 16, 32};
  Rng rng(seed ^ 0xb01cULL);
  std::vector<kcoup::coupling::CouplingRecord> records = db.records();
  for (int a = 0; a < apps; ++a) {
    char name[16];
    std::snprintf(name, sizeof name, "ZZ%02d", a);
    for (const char* config : kConfigs) {
      for (const int ranks : ranks_list) {
        for (std::size_t q = 2; q <= 3; ++q) {
          for (std::size_t start = 0; start < kLoop; ++start) {
            kcoup::coupling::CouplingRecord r;
            r.key = kcoup::coupling::CouplingKey{name, config, ranks, q, start};
            r.isolated_sum = 1e-3 * static_cast<double>(1 + rng.below(1000));
            r.chain_time =
                r.isolated_sum * (0.9 + 1e-4 * static_cast<double>(rng.below(2000)));
            records.push_back(std::move(r));
          }
        }
      }
    }
  }
  // Every key is new, so the store can take the records without its
  // per-record replace scan.
  db.adopt(std::move(records));
}

std::vector<QueryKey> exact_plan(const std::vector<Cell>& sweep,
                                 std::uint64_t seed, std::size_t n) {
  Rng rng(seed ^ 0xe4ac7ULL);
  std::vector<QueryKey> plan;
  plan.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.push_back(query_at(sweep[rng.below(sweep.size())], 2 + rng.below(2)));
  }
  return plan;
}

std::vector<QueryKey> fallback_plan(const std::vector<Cell>& sweep,
                                    std::uint64_t seed, std::size_t n) {
  Rng rng(seed ^ 0xfa11bac4ULL);
  const std::vector<Cell> donors = donor_cells(sweep);
  const std::vector<Cell> models = model_cells(sweep);
  if (donors.empty() || models.empty()) {
    throw std::logic_error("fallback_plan: sweep leaves no fallback cells");
  }
  std::vector<QueryKey> plan;
  plan.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Cell>& pool = i % 2 == 0 ? donors : models;
    plan.push_back(query_at(pool[rng.below(pool.size())], 2 + rng.below(2)));
  }
  return plan;
}

std::vector<QueryKey> probe_set(const std::vector<Cell>& sweep,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0x9e0beULL);
  const std::vector<Cell> donors = donor_cells(sweep);
  const std::vector<Cell> models = model_cells(sweep);
  std::vector<QueryKey> probes;
  for (int i = 0; i < 16; ++i) {
    probes.push_back(query_at(sweep[rng.below(sweep.size())], 2 + rng.below(2)));
  }
  for (int i = 0; i < 8; ++i) {
    probes.push_back(query_at(donors[rng.below(donors.size())], 2 + rng.below(2)));
  }
  for (int i = 0; i < 8; ++i) {
    probes.push_back(query_at(models[rng.below(models.size())], 2 + rng.below(2)));
  }
  return probes;
}

std::string plan_text(const std::vector<QueryKey>& plan) {
  std::string out;
  for (const QueryKey& q : plan) {
    out += q.application + ' ' + q.config + ' ' + std::to_string(q.ranks) +
           ' ' + std::to_string(q.chain_length) + '\n';
  }
  return out;
}

}  // namespace perfbench

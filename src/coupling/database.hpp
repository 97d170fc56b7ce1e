#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "coupling/analysis.hpp"

namespace kcoup::coupling {

/// Identifies one measured coupling value: which application, which
/// configuration (problem class / grid), how many processors, and which
/// cyclic chain of the main loop.
struct CouplingKey {
  std::string application;  ///< e.g. "BT"
  std::string config;       ///< e.g. "W" (problem class or grid label)
  int ranks = 1;
  std::size_t chain_length = 0;
  std::size_t chain_start = 0;

  [[nodiscard]] bool operator==(const CouplingKey&) const = default;
};

/// One stored measurement.
struct CouplingRecord {
  CouplingKey key;
  double chain_time = 0.0;    ///< P_S on the donor configuration
  double isolated_sum = 0.0;  ///< sum of P_k on the donor configuration

  /// C_S = P_S / sum P_k.  A record with no isolated time has no defined
  /// coupling; report NaN instead of dividing by zero.
  [[nodiscard]] double coupling() const {
    if (isolated_sum == 0.0) return std::numeric_limits<double>::quiet_NaN();
    return chain_time / isolated_sum;
  }
};

/// A persistent store of measured coupling values — the paper's stated
/// future work: "determining which coupling values must be obtained and
/// which values can be reused, thereby reducing the number of needed
/// experiments" (§6).
///
/// The reuse policy exploits the paper's empirical finding that coupling
/// values go through only a *finite number of transitions* as problem size
/// and processor count scale (§4.1.4): within a plateau, a coupling
/// measured at one configuration transfers to nearby ones.  Reusing a
/// donor's couplings requires only the N cheap isolated measurements at the
/// target configuration instead of N chain measurements per chain length.
///
/// Records keep their insertion order: records(), save_csv() and the packed
/// snapshot all follow it.  Lookups go through a sorted index of record
/// positions ordered by (application, config, chain_length, chain_start,
/// ranks), equal keys by position, so every series of rank counts is one
/// contiguous run.  In the complexities below n is size() and k the number
/// of rank counts in one series.  The mutators keep the index current
/// before they return, so a const database can be read from any number of
/// threads without locks.
class CouplingDatabase {
 public:
  /// Record every chain of one study.
  void record(const std::string& application, const std::string& config,
              int ranks, std::span<const ChainCoupling> chains);

  /// Record a single measurement, replacing the record with the same key if
  /// one exists: O(log n) to search, plus an O(n) index shift to insert.
  /// Throws std::invalid_argument for non-finite or non-positive
  /// chain/isolated times: such a record can never yield a meaningful
  /// coupling value, and persisting it would corrupt every campaign that
  /// reuses the store.  A call that throws leaves the store unchanged.
  void record(CouplingRecord record);

  /// Bulk-install records (e.g. decoded from a packed snapshot), replacing
  /// the current contents; one O(n log n) index sort instead of n record()
  /// calls.  Values are validated like record(), but records are installed
  /// as given: of several records with one key, every lookup answers with
  /// the first.
  void adopt(std::vector<CouplingRecord> records);

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Exact lookup, O(log n).
  [[nodiscard]] std::optional<CouplingRecord> find(const CouplingKey& key) const;

  /// Reuse lookup: the record for the same application/config/chain with
  /// the processor count nearest to `ranks` (log-scale distance; exact hits
  /// included).  Equidistant candidates resolve to the smaller rank count,
  /// independent of insertion order.  Returns nullopt if no candidate
  /// exists.  O(log n + k).
  [[nodiscard]] std::optional<CouplingRecord> find_nearest_ranks(
      const CouplingKey& key) const;

  /// find_nearest_ranks without the value copy: a pointer into the store,
  /// valid until the next mutation.  The hot query path uses this form.
  [[nodiscard]] const CouplingRecord* find_nearest_ranks_ref(
      const CouplingKey& key) const;

  /// Reuse lookup across configurations: the record for the same
  /// application/ranks/chain whose config label differs (e.g. reuse Class W
  /// couplings when predicting Class A).  Prefers `preferred_config` if
  /// present, otherwise any other config.  A linear scan, O(n): no serve or
  /// reload path calls it.
  [[nodiscard]] std::optional<CouplingRecord> find_other_config(
      const CouplingKey& key, const std::string& preferred_config) const;

  /// Assemble a full chain set for the target (application, config, ranks,
  /// chain_length) by reusing the nearest-ranks donor for each chain start.
  /// Returns an empty vector if any chain has no donor.
  [[nodiscard]] std::vector<ChainCoupling> reuse_chains_for(
      const std::string& application, const std::string& config, int ranks,
      std::size_t chain_length, std::size_t loop_size) const;

  /// reuse_chains_for into a caller-owned vector whose element capacity
  /// (members/label buffers) is reused across calls — the allocation-free
  /// form the query engine's per-thread scratch uses.  Returns false (and
  /// clears *out) if any chain has no donor.  On success, `donor_ranks`
  /// (when given) receives the chain_start = 0 donor's rank count.
  /// O(log n + loop_size * k).
  bool reuse_chains_into(const std::string& application,
                         const std::string& config, int ranks,
                         std::size_t chain_length, std::size_t loop_size,
                         std::vector<ChainCoupling>* out,
                         int* donor_ranks = nullptr) const;

  /// CSV round-trip (header + one record per line).
  void save_csv(std::ostream& out) const;
  /// Atomic save to a file: writes `path + ".tmp"` then renames it over
  /// `path`, so a crash mid-write never leaves a truncated database behind.
  /// Throws std::runtime_error when the file cannot be written or renamed.
  void save_csv_file(const std::string& path) const;
  /// Appends records from CSV through record(); throws std::runtime_error
  /// on malformed input, keeping the records of the lines before it.
  void load_csv(std::istream& in);
  /// Appends records from a CSV file.  Errors (missing file, malformed
  /// line, bad number) name the offending path — and, for content errors,
  /// the line number from load_csv — so an operator with many stores knows
  /// which file to fix.
  void load_csv_file(const std::string& path);

  [[nodiscard]] const std::vector<CouplingRecord>& records() const {
    return records_;
  }

 private:
  std::vector<CouplingRecord> records_;  ///< insertion order
  std::vector<std::size_t> index_;       ///< positions in records_, sorted
};

/// Coupling prediction using reused chain couplings (from a donor
/// configuration) with freshly measured isolated means at the target:
/// the paper's reduced-experiment workflow.
[[nodiscard]] double reuse_prediction(const PredictionInputs& in,
                                      std::span<const ChainCoupling> donor);

}  // namespace kcoup::coupling

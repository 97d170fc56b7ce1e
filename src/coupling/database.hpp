#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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
/// snapshot all follow it.  Lookups go through an index by (application,
/// config, chain_length) group: one hash probe, which allocates nothing,
/// finds the group, whose compact (chain_start, ranks, position) entries
/// are sorted in that order, so every series of rank counts is one
/// contiguous run and equal keys are ordered by position.  In the
/// complexities below g is the size of one group and k the number of rank
/// counts in one series.  The mutators keep the index current before they
/// return, so a const database can be read from any number of threads
/// without locks.
class CouplingDatabase {
 public:
  /// Record every chain of one study.
  void record(const std::string& application, const std::string& config,
              int ranks, std::span<const ChainCoupling> chains);

  /// Record a single measurement, replacing the record with the same key if
  /// one exists: a hash probe and an O(log g) search, plus an O(g) entry
  /// shift to insert.  Throws std::invalid_argument for non-finite or
  /// non-positive chain/isolated times: such a record can never yield a
  /// meaningful coupling value, and persisting it would corrupt every
  /// campaign that reuses the store.  A call that throws leaves the store
  /// unchanged.
  void record(CouplingRecord record);

  /// Bulk-install records (e.g. decoded from a packed snapshot), replacing
  /// the current contents: one hash probe per record and one sort per
  /// group instead of n record() calls.  Values are validated like
  /// record(), but records are installed as given: of several records with
  /// one key, every lookup answers with the first.
  void adopt(std::vector<CouplingRecord> records);

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Exact lookup: a hash probe and an O(log g) search.
  [[nodiscard]] std::optional<CouplingRecord> find(const CouplingKey& key) const;

  /// Reuse lookup: the record for the same application/config/chain with
  /// the processor count nearest to `ranks` (log-scale distance; exact hits
  /// included).  Equidistant candidates resolve to the smaller rank count,
  /// independent of insertion order.  Returns nullopt if no candidate
  /// exists.  A hash probe, O(log g + k).
  [[nodiscard]] std::optional<CouplingRecord> find_nearest_ranks(
      const CouplingKey& key) const;

  /// find_nearest_ranks without the value copy: a pointer into the store,
  /// valid until the next mutation.
  [[nodiscard]] const CouplingRecord* find_nearest_ranks_ref(
      const CouplingKey& key) const;

  /// The nearest-ranks donor of every chain start 0..loop_size-1 of the
  /// target (application, config, ranks, chain_length), in start order:
  /// pointers into the store, valid until the next mutation.  Returns false
  /// (and clears *out) if any chain has no donor.  The query engine's
  /// nearest-donor path uses this form and composes the prediction with
  /// reuse_prediction() over the donors, building no chain objects.  A
  /// hash probe and one pass over the group's entries, O(g); a warm *out
  /// fills without allocating.
  bool nearest_donors_into(std::string_view application,
                           std::string_view config, int ranks,
                           std::size_t chain_length, std::size_t loop_size,
                           std::vector<const CouplingRecord*>* out) const;

  /// Assemble a full chain set for the target (application, config, ranks,
  /// chain_length) by reusing the nearest-ranks donor for each chain start.
  /// Returns an empty vector if any chain has no donor.
  [[nodiscard]] std::vector<ChainCoupling> reuse_chains_for(
      const std::string& application, const std::string& config, int ranks,
      std::size_t chain_length, std::size_t loop_size) const;

  /// reuse_chains_for into a caller-owned vector whose element capacity
  /// (members/label buffers) is reused across calls.  Returns false (and
  /// clears *out) if any chain has no donor.  On success, `donor_ranks`
  /// (when given) receives the chain_start = 0 donor's rank count.  The
  /// donors are nearest_donors_into()'s: O(g + loop_size * chain_length).
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
  /// One record in its group's entry list.
  struct Entry {
    std::size_t chain_start = 0;
    int ranks = 0;
    std::size_t position = 0;  ///< in records_
  };
  /// A group's identity, owning its names so a copied store's index stays
  /// valid.
  struct Group {
    std::string application;
    std::string config;
    std::size_t chain_length = 0;
  };
  /// The same identity as views: what a lookup hashes and compares.
  struct GroupView {
    std::string_view application;
    std::string_view config;
    std::size_t chain_length = 0;
  };
  /// Hash and equality over Group and GroupView alike (transparent), so a
  /// lookup by views never builds a Group.
  struct GroupHash {
    using is_transparent = void;
    template <class G>
    std::size_t operator()(const G& g) const noexcept {
      return hash(GroupView{g.application, g.config, g.chain_length});
    }
    static std::size_t hash(const GroupView& g) noexcept;
  };
  struct GroupEqual {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.chain_length == b.chain_length &&
             std::string_view(a.application) == b.application &&
             std::string_view(a.config) == b.config;
    }
  };
  using Index =
      std::unordered_map<Group, std::vector<Entry>, GroupHash, GroupEqual>;

  /// The entries of one group, sorted by (chain_start, ranks, position);
  /// empty when the store holds no record of the group.
  [[nodiscard]] std::span<const Entry> group_entries(
      std::string_view application, std::string_view config,
      std::size_t chain_length) const;

  std::vector<CouplingRecord> records_;  ///< insertion order
  Index index_;
};

/// Coupling prediction using reused chain couplings (from a donor
/// configuration) with freshly measured isolated means at the target:
/// the paper's reduced-experiment workflow.
[[nodiscard]] double reuse_prediction(const PredictionInputs& in,
                                      std::span<const ChainCoupling> donor);

/// The same prediction straight from the donor records
/// nearest_donors_into() returns: donor s stands for the cyclic chain of
/// its chain_length starting at loop position s of a donors.size()-kernel
/// loop, which is the chain reuse_chains_for() builds from it, so the
/// result equals reuse_prediction() over those chains bit for bit.
[[nodiscard]] double reuse_prediction(
    const PredictionInputs& in, std::span<const CouplingRecord* const> donors);

}  // namespace kcoup::coupling

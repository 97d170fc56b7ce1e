#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "coupling/database.hpp"
#include "model/piecewise.hpp"
#include "model/transitions.hpp"
#include "serve/drift.hpp"
#include "serve/workload.hpp"

namespace kcoup::serve {

/// Precomputed composition coefficients for one exact
/// (application, config, ranks, chain_length) group of the database: the
/// reconstructed chain set (start order, exactly as measure_chains() and the
/// campaign assembly build it) and coupling_coefficients() over it.  Only
/// complete groups — one chain per loop position — are precomputed; partial
/// groups fall back to the nearest-ranks reuse path at query time.
struct AlphaGroup {
  std::vector<coupling::ChainCoupling> chains;
  std::vector<double> alpha;
  std::size_t loop_size = 0;
};

/// Supplies measured cell inputs during a snapshot build (the model fit
/// needs isolated means for the database's cells).  Returns nullopt for
/// cells that cannot be measured.  Wired to QueryEngine::cell() in the
/// server so build-time measurements land in — and are served from — the
/// engine's memo cache.
using CellFn = std::function<std::optional<CellInputs>(
    const std::string& application, const std::string& config, int ranks)>;

struct SnapshotOptions {
  /// Fit cross-validated piecewise per-kernel models E_k(n, P) from the
  /// database's measurable cells at build time (enables predictions for
  /// configurations that cannot run, e.g. BT at a non-square rank count).
  /// Requires a CellFn.
  bool fit_models = true;
  /// Run the coupling-transition changepoint scan over the database's
  /// (application, config, chain_length, chain_start) series at build
  /// time.  Purely record-derived — needs no CellFn.
  bool detect_transitions = true;
};

/// An immutable, internally consistent bundle of everything the query
/// engine reads: the loaded coupling database, the precomputed alpha
/// coefficients for every complete group, and per-application fitted
/// piecewise models.  SnapshotSource publishes each one as a
/// std::shared_ptr<const PredictorSnapshot> — readers grab a reference once
/// per request window and never observe a half-reloaded state.
class PredictorSnapshot {
 public:
  /// Sort key of a precomputed group: (application, config, ranks,
  /// chain_length).  Public so the snapshot packer can serialize groups in
  /// their canonical order.
  using GroupKey = std::tuple<std::string, std::string, int, std::size_t>;

  /// Already-derived tables, e.g. decoded from a packed snapshot.  Every
  /// vector must be strictly sorted by key — the order alpha_groups(),
  /// fitted_models() and transitions() expose, which is also the order the
  /// packer writes.
  struct Precomputed {
    std::vector<std::pair<GroupKey, AlphaGroup>> groups;
    /// Cross-validated piecewise per-kernel models, sorted by application —
    /// what the query engine's model fallback evaluates.
    std::vector<std::pair<std::string, std::vector<model::PiecewiseModel>>>
        fitted;
    /// Detected coupling transitions in canonical order (application,
    /// config, chain_length, chain_start, boundary).
    std::vector<model::CouplingTransition> transitions;
  };

  /// Derive alpha groups (and optionally fitted models) from the database.
  /// With `previous` (the snapshot this one replaces), a kernel whose sample
  /// series is bit-identical to the one `previous` fitted for the same
  /// application and loop size keeps that model instead of refitting it:
  /// fit_piecewise is a pure function of the series, so the bits are the
  /// same either way.  Every other series is fitted.
  PredictorSnapshot(coupling::CouplingDatabase db, std::uint64_t version,
                    const CellFn& cell_fn, const SnapshotOptions& options,
                    const PredictorSnapshot* previous = nullptr);

  /// Install precomputed tables verbatim — the zero-recompute load path.
  PredictorSnapshot(coupling::CouplingDatabase db, std::uint64_t version,
                    Precomputed precomputed);

  [[nodiscard]] const coupling::CouplingDatabase& database() const {
    return db_;
  }
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The precomputed group for an exact (application, config, ranks, q)
  /// point, or nullptr when the database has no complete chain set for it.
  /// One probe of a hash table over the groups; allocates nothing.
  [[nodiscard]] const AlphaGroup* find_alpha(std::string_view application,
                                             std::string_view config,
                                             int ranks,
                                             std::size_t chain_length) const;

  /// Cross-validated piecewise per-kernel models (loop order) for an
  /// application, or nullptr when none were fitted.  The query engine's
  /// model fallback evaluates these.
  [[nodiscard]] const std::vector<model::PiecewiseModel>* fitted_models_for(
      const std::string& application) const;

  [[nodiscard]] std::size_t alpha_group_count() const {
    return groups_.size();
  }
  [[nodiscard]] std::size_t fitted_application_count() const {
    return fitted_.size();
  }
  [[nodiscard]] std::size_t transition_count() const {
    return transitions_.size();
  }
  /// Per-kernel piecewise fits this build took over from the snapshot it
  /// replaced, and fits it computed.  Both 0 for a snapshot installed from
  /// precomputed tables or built without models.
  [[nodiscard]] std::size_t fits_reused() const { return fits_reused_; }
  [[nodiscard]] std::size_t fits_computed() const { return fits_computed_; }

  /// All precomputed groups / fitted models, sorted by key — the
  /// serialization order of the packed-snapshot format.
  [[nodiscard]] const std::vector<std::pair<GroupKey, AlphaGroup>>&
  alpha_groups() const {
    return groups_;
  }
  [[nodiscard]] const std::vector<
      std::pair<std::string, std::vector<model::PiecewiseModel>>>&
  fitted_models() const {
    return fitted_;
  }
  /// Detected coupling transitions, canonical order — first-class data
  /// surfaced through `kcoup fit` and the packed snapshot.
  [[nodiscard]] const std::vector<model::CouplingTransition>& transitions()
      const {
    return transitions_;
  }

 private:
  /// Position of `application` in fitted_, or fitted_.size() when absent.
  [[nodiscard]] std::size_t fitted_index(const std::string& application) const;
  /// Fill alpha_slots_ from groups_; both constructors end with it.
  void index_alpha_groups();

  coupling::CouplingDatabase db_;
  std::uint64_t version_ = 0;
  // Flat sorted arrays, not maps: the layout is what the packer
  // serializes byte-for-byte.
  std::vector<std::pair<GroupKey, AlphaGroup>> groups_;
  /// Open-addressed probe table over groups_ (linear probing, a power of
  /// two at least twice groups_.size(), so a probe always meets an empty
  /// slot): each slot holds 1 + a position in groups_, 0 when empty.
  /// Positions, not pointers, so a copied snapshot's table stays valid.
  std::vector<std::size_t> alpha_slots_;
  std::vector<std::pair<std::string, std::vector<model::PiecewiseModel>>>
      fitted_;
  std::vector<model::CouplingTransition> transitions_;
  /// Parallel to fitted_: each model's sample series, per kernel in loop
  /// order — what a later build compares its own series against.  Empty
  /// for a snapshot installed from precomputed tables, which carry no
  /// series, so a build that replaces one refits everything.
  std::vector<std::vector<std::vector<model::ModelSample>>> fit_samples_;
  std::size_t fits_reused_ = 0;
  std::size_t fits_computed_ = 0;
};

/// Owns the current snapshot and hot-reloads it when the database file
/// changes on disk.  The probe is stat(2): nanosecond mtime + inode +
/// device + size, so even a same-size rewrite inside one mtime granule is
/// seen (rename lands on a new inode); save_csv_file()'s
/// temp-write-then-rename means a probe can never observe a half-written
/// database.  Readers call current() once per served window: it copies
/// the published pointer under a mutex, which a reload holds only to swap
/// the new snapshot and drift report in, so a reader waits at most for two
/// pointer swaps.  A failed reload keeps the previous snapshot serving.
/// A CSV rebuild passes the outgoing snapshot as `previous`, so only the
/// kernel series that changed since it are refitted.
class SnapshotSource {
 public:
  SnapshotSource(std::string path, CellFn cell_fn,
                 SnapshotOptions options = {});
  ~SnapshotSource();

  SnapshotSource(const SnapshotSource&) = delete;
  SnapshotSource& operator=(const SnapshotSource&) = delete;

  /// Initial load; throws (naming the path, via load_csv_file) on failure.
  void load();

  /// The currently published snapshot (nullptr before the first load()).
  [[nodiscard]] std::shared_ptr<const PredictorSnapshot> current() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return current_;
  }

  /// Probe the file; rebuild and publish if it changed.  Returns true iff a
  /// new snapshot was published.  A failed reload is counted and the old
  /// snapshot stays.  Safe to call concurrently with readers (but only one
  /// poller should call it).
  bool poll();

  /// Start/stop the background polling thread.
  void start_polling(std::chrono::milliseconds interval);
  void stop_polling();

  [[nodiscard]] std::uint64_t reloads() const {
    return reloads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reload_failures() const {
    return reload_failures_.load(std::memory_order_relaxed);
  }

  /// The drift report computed at the most recent reload that replaced a
  /// live snapshot (see serve/drift.hpp): how far the outgoing snapshot's
  /// predictions were from the incoming database's new records.  nullptr
  /// until the first such reload.  Read like current(); the server exports
  /// it as the serve.drift.* quantiles.
  [[nodiscard]] std::shared_ptr<const DriftReport> last_drift() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return last_drift_;
  }

 private:
  /// Change fingerprint from stat(2).  Nanosecond mtime plus inode and
  /// device: save_csv_file() writes a temp file and rename(2)s it into
  /// place, so every rewrite lands on a fresh inode — a same-size rewrite
  /// within one mtime granule (coarse-timestamp filesystems) still probes
  /// as changed.
  struct FileProbe {
    std::int64_t mtime_sec = 0;
    std::int64_t mtime_nsec = 0;
    std::uint64_t inode = 0;
    std::uint64_t device = 0;
    std::uint64_t size = 0;
    [[nodiscard]] bool operator==(const FileProbe&) const = default;
  };

  [[nodiscard]] std::optional<FileProbe> probe() const;
  void load_and_publish(const FileProbe& seen);

  std::string path_;
  CellFn cell_fn_;
  SnapshotOptions options_;
  /// Guards the two published pointers.  Not std::atomic<std::shared_ptr>:
  /// GCC 12's load unlocks with memory_order_relaxed after reading the
  /// pointer, which ThreadSanitizer reports racing a reload's store.
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const PredictorSnapshot> current_;
  std::shared_ptr<const DriftReport> last_drift_;
  std::optional<FileProbe> last_probe_;
  std::uint64_t next_version_ = 1;
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> reload_failures_{0};

  std::thread poller_;
  std::mutex poll_mutex_;
  std::condition_variable poll_cv_;
  bool poll_stop_ = false;
};

}  // namespace kcoup::serve

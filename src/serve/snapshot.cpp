#include "serve/snapshot.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "coupling/analysis.hpp"
#include "obs/trace.hpp"
#include "serve/pack.hpp"

namespace kcoup::serve {

namespace {

std::size_t alpha_hash(std::string_view application, std::string_view config,
                       int ranks, std::size_t chain_length) {
  const std::hash<std::string_view> text;
  std::size_t h = text(application);
  h = h * 1000003 ^ text(config);
  h = h * 1000003 ^ static_cast<std::size_t>(ranks);
  h = h * 1000003 ^ chain_length;
  // Fold the high bits in: the table keeps only the low ones.
  return h ^ (h >> 29);
}

/// Reconstruct the full chain set of one complete group, in start order,
/// with the exact members/isolated_sum/chain_time the campaign assembly
/// produced — so coupling_coefficients() over it is bit-identical to the
/// in-process study's.
std::optional<std::vector<coupling::ChainCoupling>> reconstruct_chains(
    std::vector<const coupling::CouplingRecord*> group) {
  std::sort(group.begin(), group.end(),
            [](const coupling::CouplingRecord* a,
               const coupling::CouplingRecord* b) {
              return a->key.chain_start < b->key.chain_start;
            });
  const std::size_t loop_size = group.size();
  std::vector<coupling::ChainCoupling> chains;
  chains.reserve(loop_size);
  for (std::size_t start = 0; start < loop_size; ++start) {
    const coupling::CouplingRecord& r = *group[start];
    if (r.key.chain_start != start) return std::nullopt;  // holes: partial
    if (r.key.chain_length > loop_size) return std::nullopt;
    coupling::ChainCoupling c;
    c.start = start;
    c.length = r.key.chain_length;
    for (std::size_t i = 0; i < c.length; ++i) {
      c.members.push_back((start + i) % loop_size);
    }
    c.label = "db(P=" + std::to_string(r.key.ranks) + ")";
    c.chain_time = r.chain_time;
    c.isolated_sum = r.isolated_sum;
    chains.push_back(std::move(c));
  }
  return chains;
}

/// Bit-for-bit equality of two sample series: n, p and seconds compared as
/// their object representations, never with == on doubles.  fit_piecewise
/// is a pure function of its series, so equal series fit to the same bits;
/// -0.0 against 0.0 counts as a change, which costs only a refit.
bool same_series(const std::vector<model::ModelSample>& a,
                 const std::vector<model::ModelSample>& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&bits](const model::ModelSample& x,
                            const model::ModelSample& y) {
                      return bits(x.n) == bits(y.n) && bits(x.p) == bits(y.p) &&
                             bits(x.seconds) == bits(y.seconds);
                    });
}

}  // namespace

PredictorSnapshot::PredictorSnapshot(coupling::CouplingDatabase db,
                                     std::uint64_t version,
                                     const CellFn& cell_fn,
                                     const SnapshotOptions& options,
                                     const PredictorSnapshot* previous)
    : db_(std::move(db)), version_(version) {
  // Group records by (application, config, ranks, chain_length).
  std::map<GroupKey, std::vector<const coupling::CouplingRecord*>> by_group;
  for (const coupling::CouplingRecord& r : db_.records()) {
    by_group[GroupKey{r.key.application, r.key.config, r.key.ranks,
                      r.key.chain_length}]
        .push_back(&r);
  }
  for (auto& [key, records] : by_group) {
    auto chains = reconstruct_chains(std::move(records));
    if (!chains.has_value()) continue;  // partial group: reuse path at query
    AlphaGroup group;
    group.loop_size = chains->size();
    group.alpha = coupling::coupling_coefficients(group.loop_size, *chains);
    group.chains = std::move(*chains);
    // by_group is a std::map, so emplace_back lands in sorted key order,
    // the order the packer writes.
    groups_.emplace_back(key, std::move(group));
  }
  index_alpha_groups();

  if (options.detect_transitions) {
    // Purely record-derived: the coupling series over ranks for every
    // (application, config, chain_length, chain_start), segmented for
    // level shifts — the paper's memory-hierarchy transitions.
    transitions_ = model::detect_coupling_transitions(db_);
  }

  if (!options.fit_models || !cell_fn) return;

  // Fit per-application piecewise models from the database's measurable
  // cells.  Samples pool across configs and rank counts (n varies with the
  // problem class, P with the ranks).  Degenerate sample sets yield flagged
  // constant models, never a silently-NaN fit and never a silently
  // modelless application.
  std::map<std::string, std::set<std::pair<std::string, int>>> cells_by_app;
  for (const coupling::CouplingRecord& r : db_.records()) {
    cells_by_app[r.key.application].insert({r.key.config, r.key.ranks});
  }
  for (const auto& [application, cells] : cells_by_app) {
    std::vector<std::vector<model::ModelSample>> samples;
    for (const auto& [config, ranks] : cells) {
      const auto cell = cell_fn(application, config, ranks);
      if (!cell.has_value()) continue;
      if (samples.empty()) samples.resize(cell->loop_size);
      if (samples.size() != cell->loop_size) continue;  // shape mismatch
      for (std::size_t k = 0; k < cell->loop_size; ++k) {
        samples[k].push_back({cell->grid_extent,
                              static_cast<double>(ranks),
                              cell->inputs.isolated_means[k]});
      }
    }
    if (samples.empty() || samples.front().empty()) continue;
    // The outgoing fit of this application, when it kept its series and
    // has the same loop size: kernel k's model carries over iff kernel k's
    // series is unchanged.
    const std::vector<std::vector<model::ModelSample>>* old_samples = nullptr;
    const std::vector<model::PiecewiseModel>* old_models = nullptr;
    if (previous != nullptr) {
      const std::size_t i = previous->fitted_index(application);
      if (i < previous->fit_samples_.size() &&
          previous->fit_samples_[i].size() == samples.size()) {
        old_samples = &previous->fit_samples_[i];
        old_models = &previous->fitted_[i].second;
      }
    }
    std::vector<model::PiecewiseModel> fitted;
    fitted.reserve(samples.size());
    for (std::size_t k = 0; k < samples.size(); ++k) {
      if (old_samples != nullptr &&
          same_series((*old_samples)[k], samples[k])) {
        fitted.push_back((*old_models)[k]);
        ++fits_reused_;
      } else {
        fitted.push_back(model::fit_piecewise(samples[k]));
        ++fits_computed_;
      }
    }
    // cells_by_app is a std::map: sorted application order, as above.
    fitted_.emplace_back(application, std::move(fitted));
    fit_samples_.push_back(std::move(samples));
  }
}

PredictorSnapshot::PredictorSnapshot(coupling::CouplingDatabase db,
                                     std::uint64_t version,
                                     Precomputed precomputed)
    : db_(std::move(db)),
      version_(version),
      groups_(std::move(precomputed.groups)),
      fitted_(std::move(precomputed.fitted)),
      transitions_(std::move(precomputed.transitions)) {
  index_alpha_groups();
}

void PredictorSnapshot::index_alpha_groups() {
  alpha_slots_.assign(
      groups_.empty() ? 0 : std::bit_ceil(2 * groups_.size()), 0);
  const std::size_t mask = alpha_slots_.size() - 1;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const auto& [application, config, ranks, chain_length] = groups_[i].first;
    std::size_t slot = alpha_hash(application, config, ranks, chain_length);
    while (alpha_slots_[slot & mask] != 0) ++slot;
    alpha_slots_[slot & mask] = i + 1;
  }
}

const AlphaGroup* PredictorSnapshot::find_alpha(std::string_view application,
                                                std::string_view config,
                                                int ranks,
                                                std::size_t chain_length) const {
  if (alpha_slots_.empty()) return nullptr;
  const std::size_t mask = alpha_slots_.size() - 1;
  for (std::size_t slot = alpha_hash(application, config, ranks, chain_length);;
       ++slot) {
    const std::size_t at = alpha_slots_[slot & mask];
    if (at == 0) return nullptr;
    const auto& [key, group] = groups_[at - 1];
    if (std::get<2>(key) == ranks && std::get<3>(key) == chain_length &&
        std::get<0>(key) == application && std::get<1>(key) == config) {
      return &group;
    }
  }
}

const std::vector<model::PiecewiseModel>* PredictorSnapshot::fitted_models_for(
    const std::string& application) const {
  const std::size_t i = fitted_index(application);
  return i < fitted_.size() ? &fitted_[i].second : nullptr;
}

std::size_t PredictorSnapshot::fitted_index(
    const std::string& application) const {
  const auto it = std::lower_bound(
      fitted_.begin(), fitted_.end(), application,
      [](const auto& entry, const std::string& app) {
        return entry.first < app;
      });
  if (it == fitted_.end() || it->first != application) return fitted_.size();
  return static_cast<std::size_t>(it - fitted_.begin());
}

SnapshotSource::SnapshotSource(std::string path, CellFn cell_fn,
                               SnapshotOptions options)
    : path_(std::move(path)),
      cell_fn_(std::move(cell_fn)),
      options_(options) {}

SnapshotSource::~SnapshotSource() { stop_polling(); }

std::optional<SnapshotSource::FileProbe> SnapshotSource::probe() const {
  struct stat st{};
  if (::stat(path_.c_str(), &st) != 0) return std::nullopt;
  FileProbe p;
  p.mtime_sec = static_cast<std::int64_t>(st.st_mtim.tv_sec);
  p.mtime_nsec = static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  p.inode = static_cast<std::uint64_t>(st.st_ino);
  p.device = static_cast<std::uint64_t>(st.st_dev);
  p.size = static_cast<std::uint64_t>(st.st_size);
  return p;
}

void SnapshotSource::load_and_publish(const FileProbe& seen) {
  obs::ScopedSpan span("snapshot_reload", "serve");
  // Only this (single) poller publishes, so the snapshot being replaced
  // stays this one throughout; shards may still be reading it.
  const std::shared_ptr<const PredictorSnapshot> outgoing = current();
  // The format is sniffed from the file, not the path: an operator can
  // atomically swap a CSV database for a packed one (or back) under the
  // same serving path, and the next poll() picks the right loader.
  std::shared_ptr<const PredictorSnapshot> snapshot;
  if (is_packed_snapshot_file(path_)) {
    snapshot = load_packed_snapshot(path_, next_version_);
  } else {
    coupling::CouplingDatabase db;
    db.load_csv_file(path_);
    snapshot = std::make_shared<const PredictorSnapshot>(
        std::move(db), next_version_, cell_fn_, options_, outgoing.get());
  }
  if (span.active()) {
    span.annotate("version", next_version_);
    span.annotate("records",
                  static_cast<std::uint64_t>(
                      snapshot->database().records().size()));
    span.annotate("fits_reused",
                  static_cast<std::uint64_t>(snapshot->fits_reused()));
    span.annotate("fits_computed",
                  static_cast<std::uint64_t>(snapshot->fits_computed()));
  }
  // Continuous validation: before the swap, score the outgoing snapshot
  // against whatever the incoming database newly measured.  Runs on the
  // (rare) reload path only; readers keep serving the old snapshot
  // throughout.
  std::shared_ptr<const DriftReport> drift;
  if (outgoing) {
    drift = std::make_shared<const DriftReport>(compute_drift(
        *outgoing, snapshot->database(), snapshot->version()));
    if (span.active()) {
      span.annotate("drift_new", drift->new_records);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    current_.swap(snapshot);
    if (drift) last_drift_.swap(drift);
  }  // the replaced pointers are released after the lock
  ++next_version_;
  last_probe_ = seen;
}

void SnapshotSource::load() {
  const auto seen = probe();
  if (!seen.has_value()) {
    throw std::runtime_error("SnapshotSource: cannot stat " + path_);
  }
  load_and_publish(*seen);
  reloads_.fetch_add(1, std::memory_order_relaxed);
}

bool SnapshotSource::poll() {
  const auto seen = probe();
  if (!seen.has_value()) {
    // File vanished (mid-rename window, or deleted): keep serving the old
    // snapshot and try again next poll.
    return false;
  }
  if (last_probe_.has_value() && *seen == *last_probe_) return false;
  try {
    load_and_publish(*seen);
    reloads_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const std::exception&) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    // Remember the bad probe so a broken file is not re-parsed every poll;
    // the next successful save changes mtime/size again and retriggers.
    last_probe_ = seen;
    return false;
  }
}

void SnapshotSource::start_polling(std::chrono::milliseconds interval) {
  stop_polling();
  {
    std::lock_guard<std::mutex> lock(poll_mutex_);
    poll_stop_ = false;
  }
  poller_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(poll_mutex_);
    for (;;) {
      if (poll_cv_.wait_for(lock, interval, [this] { return poll_stop_; })) {
        return;
      }
      lock.unlock();
      poll();
      lock.lock();
    }
  });
}

void SnapshotSource::stop_polling() {
  {
    std::lock_guard<std::mutex> lock(poll_mutex_);
    poll_stop_ = true;
  }
  poll_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
}

}  // namespace kcoup::serve

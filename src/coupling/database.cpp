#include "coupling/database.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "support/num_format.hpp"

namespace kcoup::coupling {

void CouplingDatabase::record(const std::string& application,
                              const std::string& config, int ranks,
                              std::span<const ChainCoupling> chains) {
  for (const ChainCoupling& c : chains) {
    CouplingRecord r;
    r.key = CouplingKey{application, config, ranks, c.length, c.start};
    r.chain_time = c.chain_time;
    r.isolated_sum = c.isolated_sum;
    record(std::move(r));
  }
}

namespace {

void check_values(const CouplingRecord& r, const char* who) {
  if (!std::isfinite(r.chain_time) || r.chain_time <= 0.0 ||
      !std::isfinite(r.isolated_sum) || r.isolated_sum <= 0.0) {
    throw std::invalid_argument(
        std::string(who) +
        ": chain_time and isolated_sum must be finite and positive");
  }
}

// The index's sort order, and its prefixes.  Each prefix of the order
// selects one contiguous run of index entries.
auto group_of(const CouplingKey& k) {
  return std::tie(k.application, k.config, k.chain_length);
}
auto series_of(const CouplingKey& k) {
  return std::tie(k.application, k.config, k.chain_length, k.chain_start);
}
auto order_of(const CouplingKey& k) {
  return std::tie(k.application, k.config, k.chain_length, k.chain_start,
                  k.ranks);
}

/// The index entries whose key matches `probe` under the prefix `part`.
template <class Part>
std::span<const std::size_t> run_of(const std::vector<CouplingRecord>& records,
                                    const std::vector<std::size_t>& index,
                                    const CouplingKey& probe, Part part) {
  const auto first = std::lower_bound(
      index.begin(), index.end(), probe,
      [&](std::size_t pos, const CouplingKey& k) {
        return part(records[pos].key) < part(k);
      });
  const auto last = std::upper_bound(
      first, index.end(), probe, [&](const CouplingKey& k, std::size_t pos) {
        return part(k) < part(records[pos].key);
      });
  return {first, last};
}

/// The log-nearest rank count to `ranks` among one series' records.
/// Log-scale distance |log p - log t| orders candidates exactly like the
/// ratio max(p,t)/min(p,t), which integer cross-multiplication compares
/// without rounding — so equidistant candidates (e.g. P=2 and P=8 for a
/// P=4 target) are recognised exactly and tie-break on the smaller rank
/// count, never on record insertion order.  Of several records with one
/// rank count the first in the series wins, which is the earliest one:
/// the index orders equal keys by position.
const CouplingRecord* nearest_in(const std::vector<CouplingRecord>& records,
                                 std::span<const std::size_t> series,
                                 int ranks) {
  const auto closer = [ranks](int p, int q) {
    const long long pn = std::max(p, ranks);
    const long long pd = std::min(p, ranks);
    const long long qn = std::max(q, ranks);
    const long long qd = std::min(q, ranks);
    return pn * qd < qn * pd;  // pn/pd < qn/qd
  };
  const CouplingRecord* best = nullptr;
  for (const std::size_t pos : series) {
    const CouplingRecord& r = records[pos];
    if (best == nullptr || closer(r.key.ranks, best->key.ranks) ||
        (!closer(best->key.ranks, r.key.ranks) &&
         r.key.ranks < best->key.ranks)) {
      best = &r;
    }
  }
  return best;
}

}  // namespace

void CouplingDatabase::record(CouplingRecord rec) {
  check_values(rec, "CouplingDatabase::record");
  const auto same = run_of(records_, index_, rec.key, order_of);
  if (!same.empty()) {
    records_[same.front()] = std::move(rec);  // the index entry stays put
    return;
  }
  const auto at = same.data() - index_.data();
  records_.push_back(std::move(rec));
  try {
    index_.insert(index_.begin() + at, records_.size() - 1);
  } catch (...) {
    records_.pop_back();
    throw;
  }
}

void CouplingDatabase::adopt(std::vector<CouplingRecord> records) {
  for (const CouplingRecord& r : records) {
    check_values(r, "CouplingDatabase::adopt");
  }
  std::vector<std::size_t> index(records.size());
  std::iota(index.begin(), index.end(), std::size_t{0});
  // Stable: records with equal keys stay in position order.
  std::stable_sort(index.begin(), index.end(),
                   [&records](std::size_t a, std::size_t b) {
                     return order_of(records[a].key) <
                            order_of(records[b].key);
                   });
  records_ = std::move(records);
  index_ = std::move(index);
}

std::optional<CouplingRecord> CouplingDatabase::find(
    const CouplingKey& key) const {
  const auto same = run_of(records_, index_, key, order_of);
  if (same.empty()) return std::nullopt;
  return records_[same.front()];
}

std::optional<CouplingRecord> CouplingDatabase::find_nearest_ranks(
    const CouplingKey& key) const {
  const CouplingRecord* best = find_nearest_ranks_ref(key);
  if (best == nullptr) return std::nullopt;
  return *best;
}

const CouplingRecord* CouplingDatabase::find_nearest_ranks_ref(
    const CouplingKey& key) const {
  return nearest_in(records_, run_of(records_, index_, key, series_of),
                    key.ranks);
}

std::optional<CouplingRecord> CouplingDatabase::find_other_config(
    const CouplingKey& key, const std::string& preferred_config) const {
  const CouplingRecord* fallback = nullptr;
  for (const CouplingRecord& r : records_) {
    if (r.key.application != key.application || r.key.ranks != key.ranks ||
        r.key.chain_length != key.chain_length ||
        r.key.chain_start != key.chain_start ||
        r.key.config == key.config) {
      continue;
    }
    if (r.key.config == preferred_config) return r;
    if (fallback == nullptr) fallback = &r;
  }
  if (fallback == nullptr) return std::nullopt;
  return *fallback;
}

std::vector<ChainCoupling> CouplingDatabase::reuse_chains_for(
    const std::string& application, const std::string& config, int ranks,
    std::size_t chain_length, std::size_t loop_size) const {
  std::vector<ChainCoupling> chains;
  if (!reuse_chains_into(application, config, ranks, chain_length, loop_size,
                         &chains)) {
    return {};
  }
  return chains;
}

bool CouplingDatabase::reuse_chains_into(const std::string& application,
                                         const std::string& config, int ranks,
                                         std::size_t chain_length,
                                         std::size_t loop_size,
                                         std::vector<ChainCoupling>* out,
                                         int* donor_ranks) const {
  // resize() + element-wise assignment keeps every chain's members and
  // label buffers alive between calls, so a warm scratch vector fills with
  // zero allocations.
  out->resize(loop_size);
  // One search finds every chain start's series: the index holds them
  // back to back, in chain_start order.
  const std::span<const std::size_t> group = run_of(
      records_, index_, CouplingKey{application, config, ranks, chain_length, 0},
      group_of);
  auto next = group.begin();
  int first_donor_ranks = 0;
  for (std::size_t start = 0; start < loop_size; ++start) {
    const auto series_end =
        std::find_if(next, group.end(), [&](std::size_t pos) {
          return records_[pos].key.chain_start != start;
        });
    const CouplingRecord* donor =
        nearest_in(records_, {next, series_end}, ranks);
    if (donor == nullptr) {
      out->clear();
      return false;
    }
    next = series_end;
    if (start == 0) first_donor_ranks = donor->key.ranks;
    ChainCoupling& c = (*out)[start];
    c.start = start;
    c.length = chain_length;
    c.members.clear();
    for (std::size_t i = 0; i < chain_length; ++i) {
      c.members.push_back((start + i) % loop_size);
    }
    c.label = "reused(P=";
    c.label += std::to_string(donor->key.ranks);
    c.label += ')';
    c.chain_time = donor->chain_time;
    c.isolated_sum = donor->isolated_sum;
  }
  if (donor_ranks != nullptr) *donor_ranks = first_donor_ranks;
  return true;
}

void CouplingDatabase::save_csv(std::ostream& out) const {
  out << "application,config,ranks,chain_length,chain_start,chain_time,"
         "isolated_sum\n";
  for (const CouplingRecord& r : records_) {
    // 17 significant digits: a save/load round trip reproduces every
    // double bit-for-bit, so predictions served from a persisted store
    // match the in-process study exactly.
    out << r.key.application << ',' << r.key.config << ',' << r.key.ranks
        << ',' << r.key.chain_length << ',' << r.key.chain_start << ','
        << support::format_double(r.chain_time) << ','
        << support::format_double(r.isolated_sum) << '\n';
  }
}

void CouplingDatabase::save_csv_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("CouplingDatabase::save_csv_file: cannot open " +
                               tmp);
    }
    save_csv(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("CouplingDatabase::save_csv_file: write to " +
                               tmp + " failed");
    }
  }
  // On POSIX, rename() atomically replaces the target: readers see either
  // the old complete database or the new one, never a partial file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("CouplingDatabase::save_csv_file: rename to " +
                             path + " failed");
  }
}

void CouplingDatabase::load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("CouplingDatabase::load_csv_file: cannot open " +
                             path);
  }
  try {
    load_csv(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void CouplingDatabase::load_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("CouplingDatabase::load_csv: empty input");
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls(line);
    while (std::getline(ls, field, ',')) fields.push_back(field);
    if (fields.size() != 7) {
      throw std::runtime_error("CouplingDatabase::load_csv: malformed line " +
                               std::to_string(line_no) + " (expected 7 fields, got " +
                               std::to_string(fields.size()) + ")");
    }
    // Whole-field, locale-independent reads: trailing garbage ("4x"), a
    // negative size, ranks below 1, hex and inf/nan are refused, not
    // truncated or wrapped.
    const auto ranks = support::parse_int<int>(fields[2]);
    const auto chain_length = support::parse_int<std::size_t>(fields[3]);
    const auto chain_start = support::parse_int<std::size_t>(fields[4]);
    const auto chain_time = support::parse_double(fields[5]);
    const auto isolated_sum = support::parse_double(fields[6]);
    if (!ranks || *ranks < 1 || !chain_length || !chain_start ||
        !chain_time || !isolated_sum) {
      throw std::runtime_error(
          "CouplingDatabase::load_csv: bad number on line " +
          std::to_string(line_no));
    }
    try {
      record(CouplingRecord{
          {fields[0], fields[1], *ranks, *chain_length, *chain_start},
          *chain_time,
          *isolated_sum});
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("CouplingDatabase::load_csv: line " +
                               std::to_string(line_no) + ": " + e.what());
    }
  }
}

double reuse_prediction(const PredictionInputs& in,
                        std::span<const ChainCoupling> donor) {
  // The donor supplies the coupling values (and their relative time
  // weights); the target supplies fresh isolated means and counts.
  return coupling_prediction(in, donor);
}

}  // namespace kcoup::coupling

#include "coupling/database.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

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

/// The first entry of `entries` (one group, sorted) whose (chain_start,
/// ranks) is not below the given one: the key's first record when the
/// group holds it, else where an entry for it belongs.
template <class Entries>
auto first_at(Entries& entries, std::size_t chain_start, int ranks) {
  return std::ranges::lower_bound(
      entries, std::pair{chain_start, ranks}, {}, [](const auto& e) {
        return std::pair{e.chain_start, e.ranks};
      });
}

/// The log-nearest rank count to `ranks` among one series' entries.
/// Log-scale distance |log p - log t| orders candidates exactly like the
/// ratio max(p,t)/min(p,t), which integer cross-multiplication compares
/// without rounding — so equidistant candidates (e.g. P=2 and P=8 for a
/// P=4 target) are recognised exactly.  The series ascends by rank count,
/// then by position, so keeping the first of equally near entries resolves
/// a tie to the smaller rank count, never to record insertion order, and
/// of several records with one rank count to the earliest one.
template <class Entry>
const Entry* nearest_in(std::span<const Entry> series, int ranks) {
  const auto closer = [ranks](int p, int q) {
    const long long pn = std::max(p, ranks);
    const long long pd = std::min(p, ranks);
    const long long qn = std::max(q, ranks);
    const long long qd = std::min(q, ranks);
    return pn * qd < qn * pd;  // pn/pd < qn/qd
  };
  const Entry* best = nullptr;
  for (const Entry& e : series) {
    if (best == nullptr || closer(e.ranks, best->ranks)) best = &e;
  }
  return best;
}

/// The nearest-ranks donor entry of every chain start 0..loop_size-1 of
/// `group`, in start order, passed to visit(start, entry).  Returns false
/// at the first start with no entry.  The group holds each start's series
/// back to back in chain_start order, so one pass covers them all.
template <class Entry, class Visit>
bool visit_donors(std::span<const Entry> group, int ranks,
                  std::size_t loop_size, Visit&& visit) {
  auto next = group.begin();
  for (std::size_t start = 0; start < loop_size; ++start) {
    const auto series_end = std::find_if(
        next, group.end(),
        [start](const Entry& e) { return e.chain_start != start; });
    const Entry* donor = nearest_in<Entry>({next, series_end}, ranks);
    if (donor == nullptr) return false;
    visit(start, *donor);
    next = series_end;
  }
  return true;
}

}  // namespace

std::size_t CouplingDatabase::GroupHash::hash(const GroupView& g) noexcept {
  const std::hash<std::string_view> text;
  std::size_t h = text(g.application);
  h = h * 1000003 ^ text(g.config);
  return h * 1000003 ^ g.chain_length;
}

std::span<const CouplingDatabase::Entry> CouplingDatabase::group_entries(
    std::string_view application, std::string_view config,
    std::size_t chain_length) const {
  const auto group = index_.find(GroupView{application, config, chain_length});
  if (group == index_.end()) return {};
  return group->second;
}

void CouplingDatabase::record(CouplingRecord rec) {
  check_values(rec, "CouplingDatabase::record");
  const Entry entry{rec.key.chain_start, rec.key.ranks, records_.size()};
  const auto group = index_.find(
      GroupView{rec.key.application, rec.key.config, rec.key.chain_length});
  std::vector<Entry>::iterator at{};  // where a new entry goes, if grouped
  if (group != index_.end()) {
    at = first_at(group->second, entry.chain_start, entry.ranks);
    if (at != group->second.end() && at->chain_start == entry.chain_start &&
        at->ranks == entry.ranks) {
      records_[at->position] = std::move(rec);  // the entry stays put
      return;
    }
  }
  records_.push_back(std::move(rec));
  try {
    if (group != index_.end()) {
      group->second.insert(at, entry);
    } else {
      const CouplingKey& key = records_.back().key;
      index_.emplace(Group{key.application, key.config, key.chain_length},
                     std::vector<Entry>{entry});
    }
  } catch (...) {
    records_.pop_back();
    throw;
  }
}

void CouplingDatabase::adopt(std::vector<CouplingRecord> records) {
  for (const CouplingRecord& r : records) {
    check_values(r, "CouplingDatabase::adopt");
  }
  Index index;
  for (std::size_t pos = 0; pos < records.size(); ++pos) {
    const CouplingKey& key = records[pos].key;
    auto group =
        index.find(GroupView{key.application, key.config, key.chain_length});
    if (group == index.end()) {
      group = index
                  .emplace(Group{key.application, key.config,
                                 key.chain_length},
                           std::vector<Entry>{})
                  .first;
    }
    group->second.push_back({key.chain_start, key.ranks, pos});
  }
  // Position breaks ties, so records with equal keys stay in record order
  // and a lookup meets the first of them.
  for (auto& [group, entries] : index) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.chain_start, a.ranks, a.position) <
                       std::tie(b.chain_start, b.ranks, b.position);
              });
  }
  records_ = std::move(records);
  index_ = std::move(index);
}

std::optional<CouplingRecord> CouplingDatabase::find(
    const CouplingKey& key) const {
  const std::span<const Entry> group =
      group_entries(key.application, key.config, key.chain_length);
  const auto at = first_at(group, key.chain_start, key.ranks);
  if (at == group.end() || at->chain_start != key.chain_start ||
      at->ranks != key.ranks) {
    return std::nullopt;
  }
  return records_[at->position];
}

std::optional<CouplingRecord> CouplingDatabase::find_nearest_ranks(
    const CouplingKey& key) const {
  const CouplingRecord* best = find_nearest_ranks_ref(key);
  if (best == nullptr) return std::nullopt;
  return *best;
}

const CouplingRecord* CouplingDatabase::find_nearest_ranks_ref(
    const CouplingKey& key) const {
  const std::span<const Entry> series = std::ranges::equal_range(
      group_entries(key.application, key.config, key.chain_length),
      key.chain_start, {}, &Entry::chain_start);
  const Entry* best = nearest_in(series, key.ranks);
  return best == nullptr ? nullptr : &records_[best->position];
}

bool CouplingDatabase::nearest_donors_into(
    std::string_view application, std::string_view config, int ranks,
    std::size_t chain_length, std::size_t loop_size,
    std::vector<const CouplingRecord*>* out) const {
  out->clear();
  const bool found = visit_donors(
      group_entries(application, config, chain_length), ranks, loop_size,
      [&](std::size_t, const Entry& donor) {
        out->push_back(&records_[donor.position]);
      });
  if (!found) out->clear();
  return found;
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
  int first_donor_ranks = 0;
  const bool found = visit_donors(
      group_entries(application, config, chain_length), ranks, loop_size,
      [&](std::size_t start, const Entry& entry) {
        const CouplingRecord& donor = records_[entry.position];
        if (start == 0) first_donor_ranks = donor.key.ranks;
        ChainCoupling& c = (*out)[start];
        c.start = start;
        c.length = chain_length;
        c.members.clear();
        for (std::size_t i = 0; i < chain_length; ++i) {
          c.members.push_back((start + i) % loop_size);
        }
        c.label = "reused(P=";
        c.label += std::to_string(donor.key.ranks);
        c.label += ')';
        c.chain_time = donor.chain_time;
        c.isolated_sum = donor.isolated_sum;
      });
  if (!found) {
    out->clear();
    return false;
  }
  if (donor_ranks != nullptr) *donor_ranks = first_donor_ranks;
  return true;
}

void CouplingDatabase::save_csv(std::ostream& out) const {
  // One buffer, one write.  std::to_chars never consults a locale, so no
  // global locale can group digits ("1.024") into a file load_csv refuses;
  // 17 significant digits round-trip every double bit for bit, so
  // predictions served from a persisted store match the in-process study.
  std::string text =
      "application,config,ranks,chain_length,chain_start,chain_time,"
      "isolated_sum\n";
  text.reserve(text.size() + records_.size() * 64);
  char buf[24];  // fits any field: see support::format_double
  auto put = [&](char* end, char sep) {
    text.append(buf, end);
    text += sep;
  };
  for (const CouplingRecord& r : records_) {
    text += r.key.application;
    text += ',';
    text += r.key.config;
    text += ',';
    put(std::to_chars(buf, std::end(buf), r.key.ranks).ptr, ',');
    put(std::to_chars(buf, std::end(buf), r.key.chain_length).ptr, ',');
    put(std::to_chars(buf, std::end(buf), r.key.chain_start).ptr, ',');
    put(support::format_double(buf, r.chain_time), ',');
    put(support::format_double(buf, r.isolated_sum), '\n');
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
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
  // Read the input once and split it into views: lines at '\n' as getline
  // would (a final newline ends the last line rather than opening another),
  // fields at ','.
  std::string text;
  char chunk[8192];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (text.empty()) {
    throw std::runtime_error("CouplingDatabase::load_csv: empty input");
  }
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (++line_no == 1) continue;  // the header
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    // Like getline(ls, field, ','): a trailing ',' ends the last field
    // rather than opening an empty one, so "...,2.0," has seven fields and
    // "...,2.0,," eight.
    std::string_view fields[7];
    std::size_t count = 0;
    for (std::string_view tail = line;;) {
      const std::size_t comma = tail.find(',');
      if (count < 7) fields[count] = tail.substr(0, comma);
      ++count;
      if (comma == std::string_view::npos || comma + 1 == tail.size()) break;
      tail.remove_prefix(comma + 1);
    }
    if (count != 7) {
      throw std::runtime_error("CouplingDatabase::load_csv: malformed line " +
                               std::to_string(line_no) + " (expected 7 fields, got " +
                               std::to_string(count) + ")");
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
      record(CouplingRecord{{std::string(fields[0]), std::string(fields[1]),
                             *ranks, *chain_length, *chain_start},
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

double reuse_prediction(const PredictionInputs& in,
                        std::span<const CouplingRecord* const> donors) {
  const std::size_t loop_size = donors.size();
  const auto chains = donors | std::views::transform(
                                   [](const CouplingRecord* r)
                                       -> const CouplingRecord& { return *r; });
  const auto holds = [loop_size](const CouplingRecord& c, std::size_t k) {
    return in_cyclic_chain(k, c.key.chain_start, c.key.chain_length,
                           loop_size);
  };
  return compose_prediction(in, [&](std::size_t k) {
    return coupling_coefficient(chains, k, holds);
  });
}

}  // namespace kcoup::coupling

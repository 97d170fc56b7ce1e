#include "serve/pack.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "model/terms.hpp"
#include "support/atomic_file.hpp"

namespace kcoup::serve {

using binfmt::SnapshotFormatError;

namespace {

// --- Writer -----------------------------------------------------------------

std::uint32_t string_index(const std::vector<std::string>& strings,
                           const std::string& s) {
  const auto it = std::lower_bound(strings.begin(), strings.end(), s);
  // The table was built from every string the snapshot holds, so a miss
  // here is a packer bug, not an input condition.
  return static_cast<std::uint32_t>(it - strings.begin());
}

std::string pack_strings(const std::vector<std::string>& strings) {
  std::string out;
  binfmt::append_u64(&out, strings.size());
  for (const std::string& s : strings) {
    binfmt::append_u64(&out, s.size());
    out.append(s);
  }
  return out;
}

std::string pack_records(const std::vector<std::string>& strings,
                         const std::vector<coupling::CouplingRecord>& records) {
  std::string out;
  binfmt::append_u64(&out, records.size());
  // Struct-of-arrays columns: a reload streams each column sequentially,
  // and future readers can fetch just the columns they need.
  for (const auto& r : records) {
    binfmt::append_u32(&out, string_index(strings, r.key.application));
  }
  for (const auto& r : records) {
    binfmt::append_u32(&out, string_index(strings, r.key.config));
  }
  for (const auto& r : records) binfmt::append_i32(&out, r.key.ranks);
  for (const auto& r : records) binfmt::append_u64(&out, r.key.chain_length);
  for (const auto& r : records) binfmt::append_u64(&out, r.key.chain_start);
  for (const auto& r : records) binfmt::append_f64(&out, r.chain_time);
  for (const auto& r : records) binfmt::append_f64(&out, r.isolated_sum);
  return out;
}

std::string pack_alpha_groups(const std::vector<std::string>& strings,
                              const PredictorSnapshot& snapshot) {
  std::string out;
  binfmt::append_u64(&out, snapshot.alpha_groups().size());
  for (const auto& [key, group] : snapshot.alpha_groups()) {
    binfmt::append_u32(&out, string_index(strings, std::get<0>(key)));
    binfmt::append_u32(&out, string_index(strings, std::get<1>(key)));
    binfmt::append_i32(&out, std::get<2>(key));
    binfmt::append_u64(&out, std::get<3>(key));
    binfmt::append_u64(&out, group.loop_size);
    binfmt::append_u64(&out, group.alpha.size());
    binfmt::append_u64(&out, group.chains.size());
    for (const double a : group.alpha) binfmt::append_f64(&out, a);
    // Chain members and labels are derived (members are the cyclic window
    // (start + i) % loop_size, the label is "db(P=<ranks>)"), so only the
    // irreducible fields are stored; the loader rebuilds the rest exactly
    // as reconstruct_chains() does.
    for (const auto& chain : group.chains) {
      binfmt::append_u64(&out, chain.start);
      binfmt::append_u64(&out, chain.length);
      binfmt::append_f64(&out, chain.chain_time);
      binfmt::append_f64(&out, chain.isolated_sum);
    }
  }
  return out;
}

std::string pack_fitted_models(const std::vector<std::string>& strings,
                               const PredictorSnapshot& snapshot) {
  std::string out;
  // The registry term names are the contract pairing the file's
  // (term id, coefficient) pairs with this build's term functions — a
  // renamed or reordered registry must bump the format version.
  const std::vector<std::string> names = model::term_names();
  binfmt::append_u64(&out, names.size());
  for (const std::string& name : names) {
    binfmt::append_u32(&out, string_index(strings, name));
  }
  binfmt::append_u64(&out, snapshot.fitted_models().size());
  for (const auto& [application, kernels] : snapshot.fitted_models()) {
    binfmt::append_u32(&out, string_index(strings, application));
    binfmt::append_u64(&out, kernels.size());
    for (const model::PiecewiseModel& pw : kernels) {
      binfmt::append_u64(&out, pw.segments.size());
      for (const double b : pw.breakpoints) binfmt::append_f64(&out, b);
      for (const model::ModelSegment& seg : pw.segments) {
        binfmt::append_f64(&out, seg.p_min);
        binfmt::append_f64(&out, seg.p_max);
        binfmt::append_u64(&out, seg.sample_count);
        binfmt::append_u32(&out, seg.model.degenerate ? 1u : 0u);
        binfmt::append_f64(&out, seg.model.cv_rmse);
        binfmt::append_f64(&out, seg.model.fit_rmse);
        binfmt::append_u64(&out, seg.model.terms.size());
        for (const model::FittedTerm& t : seg.model.terms) {
          binfmt::append_u32(&out, t.id);
          binfmt::append_f64(&out, t.coefficient);
        }
      }
    }
  }
  return out;
}

std::string pack_transitions(const std::vector<std::string>& strings,
                             const PredictorSnapshot& snapshot) {
  std::string out;
  binfmt::append_u64(&out, snapshot.transitions().size());
  for (const model::CouplingTransition& t : snapshot.transitions()) {
    binfmt::append_u32(&out, string_index(strings, t.application));
    binfmt::append_u32(&out, string_index(strings, t.config));
    binfmt::append_u64(&out, t.chain_length);
    binfmt::append_u64(&out, t.chain_start);
    binfmt::append_i32(&out, t.ranks_lo);
    binfmt::append_i32(&out, t.ranks_hi);
    binfmt::append_f64(&out, t.boundary);
    binfmt::append_f64(&out, t.coupling_before);
    binfmt::append_f64(&out, t.coupling_after);
  }
  return out;
}

// --- Loader -----------------------------------------------------------------

std::uint32_t read_u32_at(const unsigned char* p, std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, p + offset, sizeof v);
  return v;
}

std::uint64_t read_u64_at(const unsigned char* p, std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, p + offset, sizeof v);
  return v;
}

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// Validate header + section table and return the section entries in kind
/// order.  Every check throws a named SnapshotFormatError; the order
/// (size, magic, endianness, version, header checksum, ...) is chosen so a
/// future-version file reports "unsupported version", not a checksum
/// mismatch against a layout we never understood.
std::vector<SectionEntry> parse_envelope(const unsigned char* p,
                                         std::size_t size,
                                         const std::string& origin) {
  if (size < binfmt::kHeaderBytes) {
    throw SnapshotFormatError(
        "truncated header",
        origin + ": " + std::to_string(size) + " bytes, need at least " +
            std::to_string(binfmt::kHeaderBytes));
  }
  if (std::memcmp(p, binfmt::kMagic, sizeof binfmt::kMagic) != 0) {
    throw SnapshotFormatError("bad magic", origin);
  }
  if (read_u32_at(p, 12) != binfmt::kEndianTag) {
    throw SnapshotFormatError("endianness mismatch", origin);
  }
  const std::uint32_t version = read_u32_at(p, 8);
  if (version != binfmt::kFormatVersion) {
    throw SnapshotFormatError(
        "unsupported version",
        origin + ": file version " + std::to_string(version) +
            ", reader supports " + std::to_string(binfmt::kFormatVersion));
  }
  if (binfmt::fnv1a64(p, binfmt::kHeaderChecksumOffset) !=
      read_u64_at(p, binfmt::kHeaderChecksumOffset)) {
    throw SnapshotFormatError("header checksum mismatch", origin);
  }
  // From here on the header bytes are trustworthy.
  const std::uint64_t file_size = read_u64_at(p, 16);
  if (file_size != size) {
    throw SnapshotFormatError(
        "size mismatch", origin + ": header records " +
                             std::to_string(file_size) + " bytes, file has " +
                             std::to_string(size));
  }
  if (read_u32_at(p, 28) != binfmt::kHeaderBytes) {
    throw SnapshotFormatError("bad header size", origin);
  }
  for (std::size_t i = 40; i < binfmt::kHeaderChecksumOffset; ++i) {
    if (p[i] != 0) {
      throw SnapshotFormatError("nonzero reserved bytes", origin);
    }
  }
  const std::uint32_t section_count = read_u32_at(p, 24);
  if (section_count > binfmt::kMaxSections) {
    throw SnapshotFormatError(
        "oversized section table",
        origin + ": " + std::to_string(section_count) + " sections");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{section_count} * binfmt::kSectionEntryBytes;
  if (table_bytes > size - binfmt::kHeaderBytes) {
    throw SnapshotFormatError("truncated section table", origin);
  }
  if (binfmt::fnv1a64(p + binfmt::kHeaderBytes, table_bytes) !=
      read_u64_at(p, 32)) {
    throw SnapshotFormatError("section table checksum mismatch", origin);
  }

  std::vector<SectionEntry> entries(section_count);
  std::uint64_t expected_offset = binfmt::kHeaderBytes + table_bytes;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t base =
        binfmt::kHeaderBytes + std::size_t{i} * binfmt::kSectionEntryBytes;
    SectionEntry& e = entries[i];
    e.kind = read_u32_at(p, base);
    e.flags = read_u32_at(p, base + 4);
    e.offset = read_u64_at(p, base + 8);
    e.size = read_u64_at(p, base + 16);
    e.checksum = read_u64_at(p, base + 24);
    if (e.flags != 0) {
      throw SnapshotFormatError("bad section flags", origin);
    }
    // Sections must tile the payload region exactly: back-to-back, in
    // table order, the last ending at file_size.  With that invariant every
    // byte of the file is covered by exactly one checksum (header, table,
    // or a section), which the bit-flip fuzz test depends on.
    if (e.offset != expected_offset || e.size > size - expected_offset) {
      throw SnapshotFormatError(
          "section layout mismatch",
          origin + ": section " + std::to_string(i));
    }
    expected_offset += e.size;
  }
  if (expected_offset != size) {
    throw SnapshotFormatError(
        "section layout mismatch",
        origin + ": sections end at " + std::to_string(expected_offset) +
            " of " + std::to_string(size));
  }
  if (section_count != binfmt::kSectionCount) {
    throw SnapshotFormatError(
        "unexpected section count",
        origin + ": " + std::to_string(section_count) + ", expected " +
            std::to_string(binfmt::kSectionCount));
  }
  for (std::uint32_t i = 0; i < section_count; ++i) {
    if (entries[i].kind != i + 1) {
      throw SnapshotFormatError(
          "unexpected section kind",
          origin + ": section " + std::to_string(i) + " has kind " +
              std::to_string(entries[i].kind));
    }
    if (binfmt::fnv1a64(p + entries[i].offset, entries[i].size) !=
        entries[i].checksum) {
      throw SnapshotFormatError(
          "section checksum mismatch",
          origin + ": section kind " + std::to_string(entries[i].kind));
    }
  }
  return entries;
}

std::vector<std::string> decode_strings(binfmt::Cursor cur) {
  const std::uint64_t count = cur.u64();
  cur.check_count(count, 8, "string count");
  std::vector<std::string> strings;
  strings.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = cur.u64();
    const unsigned char* bytes = cur.bytes(len);
    strings.emplace_back(reinterpret_cast<const char*>(bytes), len);
  }
  cur.expect_exhausted();
  return strings;
}

const std::string& string_at(const std::vector<std::string>& strings,
                             std::uint32_t index, const std::string& origin) {
  if (index >= strings.size()) {
    throw SnapshotFormatError(
        "string index out of range",
        origin + ": index " + std::to_string(index) + " of " +
            std::to_string(strings.size()));
  }
  return strings[index];
}

coupling::CouplingDatabase decode_records(
    binfmt::Cursor cur, const std::vector<std::string>& strings,
    const std::string& origin) {
  const std::uint64_t count = cur.u64();
  cur.check_count(count, 4 + 4 + 4 + 8 + 8 + 8 + 8, "record count");
  std::vector<coupling::CouplingRecord> records(count);
  for (auto& r : records) {
    r.key.application = string_at(strings, cur.u32(), origin);
  }
  for (auto& r : records) {
    r.key.config = string_at(strings, cur.u32(), origin);
  }
  for (auto& r : records) r.key.ranks = cur.i32();
  for (auto& r : records) {
    r.key.chain_length = static_cast<std::size_t>(cur.u64());
  }
  for (auto& r : records) {
    r.key.chain_start = static_cast<std::size_t>(cur.u64());
  }
  for (auto& r : records) r.chain_time = cur.f64();
  for (auto& r : records) r.isolated_sum = cur.f64();
  cur.expect_exhausted();
  coupling::CouplingDatabase db;
  try {
    // adopt() keeps record()'s value validation (finite, positive) and
    // builds the lookup index with one sort instead of a search per
    // record: the packer wrote a deduplicated store, and every byte was
    // already checksum-verified.
    db.adopt(std::move(records));
  } catch (const std::invalid_argument& e) {
    throw SnapshotFormatError("invalid record values", origin + ": " + e.what());
  }
  return db;
}

std::vector<std::pair<PredictorSnapshot::GroupKey, AlphaGroup>>
decode_alpha_groups(binfmt::Cursor cur,
                    const std::vector<std::string>& strings,
                    const std::string& origin) {
  const std::uint64_t count = cur.u64();
  cur.check_count(count, 4 + 4 + 4 + 8 + 8 + 8 + 8, "group count");
  std::vector<std::pair<PredictorSnapshot::GroupKey, AlphaGroup>> groups;
  groups.reserve(count);
  for (std::uint64_t g = 0; g < count; ++g) {
    const std::uint32_t app_idx = cur.u32();
    const std::uint32_t config_idx = cur.u32();
    const std::int32_t ranks = cur.i32();
    const std::uint64_t chain_length = cur.u64();
    const std::uint64_t loop_size = cur.u64();
    const std::uint64_t alpha_count = cur.u64();
    const std::uint64_t chain_count = cur.u64();
    // Complete groups have exactly one chain per loop position; anything
    // else cannot have come from the packer, and the equality also bounds
    // the member-vector reconstruction below.
    if (chain_count != loop_size) {
      throw SnapshotFormatError(
          "bad group shape", origin + ": group " + std::to_string(g) +
                                 " has " + std::to_string(chain_count) +
                                 " chains for loop size " +
                                 std::to_string(loop_size));
    }
    AlphaGroup group;
    group.loop_size = static_cast<std::size_t>(loop_size);
    cur.check_count(alpha_count, 8, "alpha count");
    group.alpha.reserve(alpha_count);
    for (std::uint64_t i = 0; i < alpha_count; ++i) {
      group.alpha.push_back(cur.f64());
    }
    cur.check_count(chain_count, 8 + 8 + 8 + 8, "chain count");
    group.chains.reserve(chain_count);
    const std::string label = "db(P=" + std::to_string(ranks) + ")";
    for (std::uint64_t c = 0; c < chain_count; ++c) {
      coupling::ChainCoupling chain;
      chain.start = static_cast<std::size_t>(cur.u64());
      chain.length = static_cast<std::size_t>(cur.u64());
      chain.chain_time = cur.f64();
      chain.isolated_sum = cur.f64();
      if (chain.length > loop_size) {
        throw SnapshotFormatError(
            "bad group shape",
            origin + ": chain length " + std::to_string(chain.length) +
                " exceeds loop size " + std::to_string(loop_size));
      }
      chain.members.reserve(chain.length);
      for (std::size_t i = 0; i < chain.length; ++i) {
        chain.members.push_back((chain.start + i) % group.loop_size);
      }
      chain.label = label;
      group.chains.push_back(std::move(chain));
    }
    PredictorSnapshot::GroupKey key{string_at(strings, app_idx, origin),
                                    string_at(strings, config_idx, origin),
                                    ranks,
                                    static_cast<std::size_t>(chain_length)};
    if (!groups.empty() && !(groups.back().first < key)) {
      throw SnapshotFormatError("unsorted alpha groups", origin);
    }
    groups.emplace_back(std::move(key), std::move(group));
  }
  cur.expect_exhausted();
  return groups;
}

std::vector<std::pair<std::string, std::vector<model::PiecewiseModel>>>
decode_fitted_models(binfmt::Cursor cur,
                     const std::vector<std::string>& strings,
                     const std::string& origin) {
  const std::vector<std::string> reference = model::term_names();
  const std::uint64_t term_count = cur.u64();
  cur.check_count(term_count, 4, "registry term count");
  std::vector<std::string> names;
  names.reserve(term_count);
  for (std::uint64_t i = 0; i < term_count; ++i) {
    names.push_back(string_at(strings, cur.u32(), origin));
  }
  // Term functions cannot live in a file; the pinned registry name list is
  // the proof that the stored term ids mean what this build's registry
  // evaluates.  A renamed, reordered or truncated registry must bump the
  // format version.
  if (names != reference) {
    throw SnapshotFormatError("unknown model term registry", origin);
  }
  const std::uint64_t app_count = cur.u64();
  cur.check_count(app_count, 4 + 8, "fitted application count");
  std::vector<std::pair<std::string, std::vector<model::PiecewiseModel>>>
      fitted;
  fitted.reserve(app_count);
  for (std::uint64_t a = 0; a < app_count; ++a) {
    const std::string& application = string_at(strings, cur.u32(), origin);
    const std::uint64_t kernel_count = cur.u64();
    cur.check_count(kernel_count, 8, "fitted kernel count");
    std::vector<model::PiecewiseModel> kernels;
    kernels.reserve(kernel_count);
    for (std::uint64_t k = 0; k < kernel_count; ++k) {
      const std::uint64_t segment_count = cur.u64();
      if (segment_count == 0) {
        throw SnapshotFormatError(
            "bad fitted model shape",
            origin + ": piecewise model with zero segments");
      }
      // Per segment at minimum: p_min/p_max/sample_count/flags/cv/fit/terms
      // = 8+8+8+4+8+8+8 bytes; the breakpoints add 8 per boundary.
      cur.check_count(segment_count, 8 + 8 + 8 + 4 + 8 + 8 + 8,
                      "segment count");
      model::PiecewiseModel pw;
      pw.breakpoints.reserve(segment_count - 1);
      for (std::uint64_t b = 0; b + 1 < segment_count; ++b) {
        pw.breakpoints.push_back(cur.f64());
        if (pw.breakpoints.size() > 1 &&
            !(pw.breakpoints[pw.breakpoints.size() - 2] <
              pw.breakpoints.back())) {
          throw SnapshotFormatError(
              "bad fitted model shape",
              origin + ": breakpoints not strictly ascending");
        }
      }
      pw.segments.reserve(segment_count);
      for (std::uint64_t sgi = 0; sgi < segment_count; ++sgi) {
        model::ModelSegment seg;
        seg.p_min = cur.f64();
        seg.p_max = cur.f64();
        seg.sample_count = static_cast<std::size_t>(cur.u64());
        const std::uint32_t flags = cur.u32();
        if (flags > 1) {
          throw SnapshotFormatError(
              "bad fitted model shape",
              origin + ": unknown segment flags " + std::to_string(flags));
        }
        seg.model.degenerate = (flags & 1u) != 0;
        seg.model.cv_rmse = cur.f64();
        seg.model.fit_rmse = cur.f64();
        const std::uint64_t seg_terms = cur.u64();
        cur.check_count(seg_terms, 4 + 8, "segment term count");
        seg.model.terms.reserve(seg_terms);
        for (std::uint64_t t = 0; t < seg_terms; ++t) {
          model::FittedTerm term;
          term.id = cur.u32();
          term.coefficient = cur.f64();
          if (term.id >= reference.size()) {
            throw SnapshotFormatError(
                "bad fitted model shape",
                origin + ": term id " + std::to_string(term.id) +
                    " out of registry range");
          }
          if (!seg.model.terms.empty() &&
              !(seg.model.terms.back().id < term.id)) {
            throw SnapshotFormatError(
                "bad fitted model shape",
                origin + ": term ids not strictly ascending");
          }
          seg.model.terms.push_back(term);
        }
        pw.segments.push_back(std::move(seg));
      }
      kernels.push_back(std::move(pw));
    }
    if (!fitted.empty() && !(fitted.back().first < application)) {
      throw SnapshotFormatError("unsorted fitted models", origin);
    }
    fitted.emplace_back(application, std::move(kernels));
  }
  cur.expect_exhausted();
  return fitted;
}

std::vector<model::CouplingTransition> decode_transitions(
    binfmt::Cursor cur, const std::vector<std::string>& strings,
    const std::string& origin) {
  const std::uint64_t count = cur.u64();
  cur.check_count(count, 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8,
                  "transition count");
  std::vector<model::CouplingTransition> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    model::CouplingTransition t;
    t.application = string_at(strings, cur.u32(), origin);
    t.config = string_at(strings, cur.u32(), origin);
    t.chain_length = static_cast<std::size_t>(cur.u64());
    t.chain_start = static_cast<std::size_t>(cur.u64());
    t.ranks_lo = cur.i32();
    t.ranks_hi = cur.i32();
    t.boundary = cur.f64();
    t.coupling_before = cur.f64();
    t.coupling_after = cur.f64();
    if (!out.empty()) {
      const model::CouplingTransition& prev = out.back();
      const auto key = [](const model::CouplingTransition& x) {
        return std::tie(x.application, x.config, x.chain_length,
                        x.chain_start, x.boundary);
      };
      if (!(key(prev) < key(t))) {
        throw SnapshotFormatError("unsorted transitions", origin);
      }
    }
    out.push_back(std::move(t));
  }
  cur.expect_exhausted();
  return out;
}

}  // namespace

std::string pack_snapshot(const PredictorSnapshot& snapshot) {
  // Deduplicated sorted string table over every string the file refers to.
  std::set<std::string> string_set;
  for (const auto& r : snapshot.database().records()) {
    string_set.insert(r.key.application);
    string_set.insert(r.key.config);
  }
  for (const auto& [key, group] : snapshot.alpha_groups()) {
    string_set.insert(std::get<0>(key));
    string_set.insert(std::get<1>(key));
  }
  for (const auto& name : model::term_names()) string_set.insert(name);
  for (const auto& [application, kernels] : snapshot.fitted_models()) {
    string_set.insert(application);
  }
  for (const auto& t : snapshot.transitions()) {
    string_set.insert(t.application);
    string_set.insert(t.config);
  }
  const std::vector<std::string> strings(string_set.begin(), string_set.end());

  const std::pair<binfmt::SectionKind, std::string> sections[] = {
      {binfmt::SectionKind::kStrings, pack_strings(strings)},
      {binfmt::SectionKind::kRecords,
       pack_records(strings, snapshot.database().records())},
      {binfmt::SectionKind::kAlphaGroups,
       pack_alpha_groups(strings, snapshot)},
      {binfmt::SectionKind::kFittedModels,
       pack_fitted_models(strings, snapshot)},
      {binfmt::SectionKind::kTransitions,
       pack_transitions(strings, snapshot)},
  };
  const std::size_t section_count = std::size(sections);

  std::string table;
  std::uint64_t offset = binfmt::kHeaderBytes +
                         section_count * binfmt::kSectionEntryBytes;
  for (const auto& [kind, payload] : sections) {
    binfmt::append_u32(&table, static_cast<std::uint32_t>(kind));
    binfmt::append_u32(&table, 0);  // flags, reserved
    binfmt::append_u64(&table, offset);
    binfmt::append_u64(&table, payload.size());
    binfmt::append_u64(&table, binfmt::fnv1a64(payload.data(), payload.size()));
    offset += payload.size();
  }
  const std::uint64_t file_size = offset;

  std::string out;
  out.reserve(file_size);
  out.append(binfmt::kMagic, sizeof binfmt::kMagic);
  binfmt::append_u32(&out, binfmt::kFormatVersion);
  binfmt::append_u32(&out, binfmt::kEndianTag);
  binfmt::append_u64(&out, file_size);
  binfmt::append_u32(&out, static_cast<std::uint32_t>(section_count));
  binfmt::append_u32(&out, static_cast<std::uint32_t>(binfmt::kHeaderBytes));
  binfmt::append_u64(&out, binfmt::fnv1a64(table.data(), table.size()));
  out.append(16, '\0');  // reserved
  binfmt::append_u64(&out,
                     binfmt::fnv1a64(out.data(),
                                     binfmt::kHeaderChecksumOffset));
  out += table;
  for (const auto& [kind, payload] : sections) out += payload;
  return out;
}

PackStats pack_snapshot_file(const PredictorSnapshot& snapshot,
                             const std::string& path) {
  const std::string packed = pack_snapshot(snapshot);
  support::write_file_atomic(path, packed);
  PackStats stats;
  stats.records = snapshot.database().records().size();
  stats.alpha_groups = snapshot.alpha_group_count();
  stats.fitted_applications = snapshot.fitted_application_count();
  stats.transitions = snapshot.transition_count();
  stats.bytes = packed.size();
  stats.format_version = binfmt::kFormatVersion;
  return stats;
}

bool is_packed_snapshot(std::string_view bytes) {
  return bytes.size() >= sizeof binfmt::kMagic &&
         std::memcmp(bytes.data(), binfmt::kMagic, sizeof binfmt::kMagic) == 0;
}

bool is_packed_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char head[sizeof binfmt::kMagic];
  in.read(head, sizeof head);
  if (in.gcount() != static_cast<std::streamsize>(sizeof head)) return false;
  return std::memcmp(head, binfmt::kMagic, sizeof head) == 0;
}

std::shared_ptr<const PredictorSnapshot> load_packed_snapshot_bytes(
    const void* data, std::size_t size, std::uint64_t version,
    const std::string& origin) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::vector<SectionEntry> sections = parse_envelope(p, size, origin);
  const auto cursor = [&](std::size_t i, const char* what) {
    return binfmt::Cursor(p + sections[i].offset, sections[i].size,
                          origin + " " + what);
  };
  const std::vector<std::string> strings =
      decode_strings(cursor(0, "strings"));
  coupling::CouplingDatabase db =
      decode_records(cursor(1, "records"), strings, origin);
  PredictorSnapshot::Precomputed pre;
  pre.groups = decode_alpha_groups(cursor(2, "alpha groups"), strings, origin);
  pre.fitted =
      decode_fitted_models(cursor(3, "fitted models"), strings, origin);
  pre.transitions =
      decode_transitions(cursor(4, "transitions"), strings, origin);
  return std::make_shared<const PredictorSnapshot>(std::move(db), version,
                                                   std::move(pre));
}

std::shared_ptr<const PredictorSnapshot> load_packed_snapshot(
    const std::string& path, std::uint64_t version) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("load_packed_snapshot: cannot open " + path);
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } fd_guard{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    throw std::runtime_error("load_packed_snapshot: cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    throw SnapshotFormatError("truncated header", path + ": empty file");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    throw std::runtime_error("load_packed_snapshot: mmap of " + path +
                             " failed");
  }
  struct MapGuard {
    void* p;
    std::size_t n;
    ~MapGuard() { ::munmap(p, n); }
  } map_guard{map, size};
  return load_packed_snapshot_bytes(map, size, version, path);
}

PackStats verify_packed_snapshot(const std::string& path) {
  const auto snapshot = load_packed_snapshot(path, 0);
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("verify_packed_snapshot: cannot stat " + path);
  }
  PackStats stats;
  stats.records = snapshot->database().records().size();
  stats.alpha_groups = snapshot->alpha_group_count();
  stats.fitted_applications = snapshot->fitted_application_count();
  stats.transitions = snapshot->transition_count();
  stats.bytes = static_cast<std::size_t>(st.st_size);
  stats.format_version = binfmt::kFormatVersion;
  return stats;
}

}  // namespace kcoup::serve

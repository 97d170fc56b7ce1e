#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/binfmt.hpp"
#include "serve/snapshot.hpp"

namespace kcoup::serve {

/// Counts reported by the packer and the verifier.
struct PackStats {
  std::size_t records = 0;
  std::size_t alpha_groups = 0;
  std::size_t fitted_applications = 0;
  std::size_t transitions = 0;
  std::size_t bytes = 0;
  std::uint32_t format_version = 0;
};

/// Serialize a snapshot's database + precomputed tables into the `.kcs`
/// byte layout (binfmt.hpp).  Deterministic: the same snapshot always packs
/// to the same bytes, which the golden-format test pins.
[[nodiscard]] std::string pack_snapshot(const PredictorSnapshot& snapshot);

/// pack_snapshot + atomic temp-and-rename publish to `path`, so a poller
/// never observes a half-written snapshot file.
PackStats pack_snapshot_file(const PredictorSnapshot& snapshot,
                             const std::string& path);

/// True when the bytes / the file start with the packed-snapshot magic.
/// This is the sniff SnapshotSource uses to choose CSV vs packed loading;
/// a missing or unreadable file is simply "not packed".
[[nodiscard]] bool is_packed_snapshot(std::string_view bytes);
[[nodiscard]] bool is_packed_snapshot_file(const std::string& path);

/// mmap `path` and decode it into an immutable snapshot carrying `version`.
/// No text parsing, no alpha recomputation, no model refitting — decode is
/// checksum verification plus bulk reads of the precomputed tables.
/// Throws binfmt::SnapshotFormatError (always with a named code) on any
/// malformed input; std::runtime_error if the file cannot be opened/mapped.
[[nodiscard]] std::shared_ptr<const PredictorSnapshot> load_packed_snapshot(
    const std::string& path, std::uint64_t version);

/// Decode from an in-memory buffer (the mmap-free core of the loader;
/// `origin` names the source in errors).  The fuzz tests drive this
/// directly so a million mutated inputs need no filesystem round trips.
[[nodiscard]] std::shared_ptr<const PredictorSnapshot>
load_packed_snapshot_bytes(const void* data, std::size_t size,
                           std::uint64_t version, const std::string& origin);

/// Full integrity check (`kcoup pack --verify`): decodes the entire file —
/// every checksum, every table — and reports what it holds.  Throws like
/// load_packed_snapshot on any defect.
PackStats verify_packed_snapshot(const std::string& path);

}  // namespace kcoup::serve

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace kcoup::serve::binfmt {

/// The `.kcs` packed-snapshot container (see docs/snapshot_format.md).
///
/// Layout invariants the loader enforces — and the format-fuzz tests lean
/// on:
///   * a 64-byte fixed header whose last 8 bytes checksum the first 56,
///   * a section table checksummed as one block,
///   * payload sections laid out back-to-back in table order, each with its
///     own checksum, the last one ending exactly at the recorded file size.
/// Together these cover *every byte of the file* with some checksum, so a
/// truncation at any offset or a single-bit flip anywhere is always
/// detected and reported as a named SnapshotFormatError — never a crash,
/// never a silently wrong snapshot.
///
/// Multi-byte fields are host-endian; the endianness tag makes a
/// cross-endian file fail loudly instead of deserializing garbage.  `.kcs`
/// is a cache artifact regenerated from CSV with `kcoup pack`, not an
/// interchange format.

inline constexpr char kMagic[8] = {'K', 'C', 'O', 'U', 'P', 'K', 'C', 'S'};
/// v3 dropped v2's fixed-basis scaling-model section (kind 4), so the
/// fitted-model and transition sections are now kinds 4 and 5.  v2 added
/// those two sections; v1 and v2 files are no longer readable (regenerate
/// from CSV with `kcoup pack` — `.kcs` is a cache artifact, never the
/// source of truth).
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kHeaderChecksumOffset = kHeaderBytes - 8;
inline constexpr std::size_t kSectionEntryBytes = 32;
/// Far above the five kinds a v3 file carries; a count beyond this is a
/// corrupt or hostile section table, rejected before any allocation.
inline constexpr std::uint32_t kMaxSections = 64;

enum class SectionKind : std::uint32_t {
  kStrings = 1,       ///< deduplicated string table
  kRecords = 2,       ///< coupling records, SoA columns
  kAlphaGroups = 3,   ///< precomputed per-group composition coefficients
  kFittedModels = 4,  ///< cross-validated piecewise per-kernel models
  kTransitions = 5,   ///< detected coupling transitions
};

/// Sections a well-formed file carries, in kind order 1..kSectionCount.
inline constexpr std::uint32_t kSectionCount = 5;

/// Every rejection path of the packed-snapshot loader throws this, with a
/// stable machine-checkable `code()` (e.g. "bad magic", "section checksum
/// mismatch") ahead of the human detail.
class SnapshotFormatError : public std::runtime_error {
 public:
  SnapshotFormatError(std::string code, const std::string& detail)
      : std::runtime_error(code + (detail.empty() ? "" : ": " + detail)),
        code_(std::move(code)) {}

  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// FNV-1a 64 — the same digest the shard partitioner uses.  Not
/// cryptographic; it guards against corruption (torn writes, bad disks,
/// truncation), not adversaries.
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// --- Serialization helpers (host-endian, unaligned-safe) --------------------

inline void append_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void append_u64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void append_i32(std::string* out, std::int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void append_f64(std::string* out, double v) {
  // Raw IEEE-754 bits: the round trip is exact by construction, no 17-digit
  // decimal detour.
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void poke_u64(std::string* out, std::size_t offset, std::uint64_t v) {
  std::memcpy(out->data() + offset, &v, sizeof v);
}

/// Bounds-checked reader over one section's bytes.  Every read that would
/// run past the end throws a named error instead of touching out-of-range
/// memory, which is what makes truncation-at-every-offset fuzzing safe.
class Cursor {
 public:
  Cursor(const unsigned char* data, std::size_t size, std::string what)
      : data_(data), size_(size), what_(std::move(what)) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  [[nodiscard]] std::uint32_t u32() { return read<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return read<std::int32_t>(); }
  [[nodiscard]] double f64() { return read<double>(); }

  [[nodiscard]] const unsigned char* bytes(std::size_t n) {
    require(n, "string bytes");
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// Guard a count field before reserving memory for it: a corrupt count
  /// can claim 10^18 entries, and the bound must fail *before* a
  /// std::bad_alloc (or worse) rather than after.
  void check_count(std::uint64_t count, std::size_t min_bytes_each,
                   const char* field) const {
    if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
      throw SnapshotFormatError(
          "count out of range",
          what_ + ": " + field + " claims " + std::to_string(count) +
              " entries but only " + std::to_string(remaining()) +
              " bytes remain");
    }
  }

  void expect_exhausted() const {
    if (pos_ != size_) {
      throw SnapshotFormatError(
          "trailing section bytes",
          what_ + ": " + std::to_string(size_ - pos_) + " undecoded bytes");
    }
  }

 private:
  template <typename T>
  [[nodiscard]] T read() {
    require(sizeof(T), "field");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n, const char* kind) const {
    if (n > remaining()) {
      throw SnapshotFormatError(
          "truncated section",
          what_ + ": " + kind + " of " + std::to_string(n) +
              " bytes with " + std::to_string(remaining()) + " remaining");
    }
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string what_;
};

}  // namespace kcoup::serve::binfmt

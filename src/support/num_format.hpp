#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace kcoup::support {

/// Locale-independent double formatting: '.' decimal point, no digit
/// grouping, 17 significant digits in the shortest of fixed and exponent
/// notation (printf's "%.17g"; non-finite values print as "inf", "-inf",
/// "nan" or "-nan").  Seventeen digits (max_digits10) round-trip every
/// finite double exactly, which the campaign journal relies on for
/// bit-identical resume.  std::to_chars never consults a locale.  Writes
/// into `buf`, which must hold kFormatDoubleBytes, and returns one past the
/// last character.
inline constexpr std::size_t kFormatDoubleBytes =
    sizeof("-1.7976931348623157e+308") - 1;  // the longest output
inline char* format_double(char* buf, double v) {
  return std::to_chars(buf, buf + kFormatDoubleBytes, v,
                       std::chars_format::general, 17)
      .ptr;
}

/// format_double into a new string.
[[nodiscard]] inline std::string format_double(double v) {
  char buf[kFormatDoubleBytes];
  return std::string(buf, format_double(buf, v));
}

/// Locale-independent strict double parse: the whole string must be
/// consumed.  Returns nullopt on malformed input instead of throwing so
/// callers can attach their own context.
///
/// Accepts exactly what the classic-locale stream extractor accepts, with
/// the same bits.  std::from_chars answers every plain decimal that reads
/// to a finite value; everything else goes to the stream, which alone
/// accepts a leading '+', surrounding whitespace and underflow to zero,
/// and which refuses what from_chars alone would accept: "inf" and "nan".
[[nodiscard]] inline std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  double fast = 0.0;
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, fast);
  if (ec == std::errc{} && ptr == last && std::isfinite(fast)) return fast;

  std::istringstream in{std::string(s)};
  in.imbue(std::locale::classic());
  double v = 0.0;
  in >> v;
  if (in.fail()) return std::nullopt;
  in >> std::ws;
  if (!in.eof()) return std::nullopt;
  return v;
}

/// Locale-independent strict base-10 integer parse: leading whitespace,
/// an optional sign, then digits to the end; nullopt otherwise or out of
/// Int's range.  That is what std::stoi/stoul accept with a whole-string
/// check, except that a '-' before an unsigned type's nonzero value is
/// refused, where std::stoul would wrap it to a huge value.
template <typename Int>
[[nodiscard]] std::optional<Int> parse_int(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string_view::npos) return std::nullopt;
  s.remove_prefix(first);
  // from_chars reads no '+', and no '-' into an unsigned type.
  bool minus = false;
  if (s.front() == '+' || (std::is_unsigned_v<Int> && s.front() == '-')) {
    minus = s.front() == '-';
    s.remove_prefix(1);
    if (s.empty() || s.front() == '-') return std::nullopt;
  }
  Int v{};
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc{} || ptr != last || (minus && v != 0)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace kcoup::support

#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace kcoup::support {

namespace detail {

__extension__ typedef unsigned __int128 Uint128;

/// 5^k for k in [0, kMaxPow5]; 5^32 < 2^75, so a 53-bit significand times
/// any of them fits 128 bits.
inline constexpr int kMaxPow5 = 32;
inline constexpr std::array<Uint128, kMaxPow5 + 1> kPow5 = [] {
  std::array<Uint128, kMaxPow5 + 1> t{};
  t[0] = 1;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = t[k - 1] * 5;
  return t;
}();

/// q = floor(m * 2^e * 10^k), and how the dropped fraction compares with
/// one half in *half (-1 below, 0 equal, 1 above), in exact integer
/// arithmetic: m * 5^k shifted by e + k for k >= 0, (m << (e - j)) / 5^j
/// for k = -j < 0.  False where an operand would leave 128 bits.
inline bool scale_pow10(std::uint64_t m, int e, int k, Uint128* q,
                        int* half) {
  if (k >= 0) {
    if (k > kMaxPow5) return false;
    const Uint128 n = m * kPow5[static_cast<std::size_t>(k)];
    const int shift = e + k;
    if (shift >= 0) {
      // An integer, only for |v| >= 2^52: q < 2 * 10^17 < 2^58 over
      // m >= 2^52 leaves a shift of at most 5.
      if (shift > 5) return false;
      *q = n << shift;
      *half = -1;
      return true;
    }
    const int s = -shift;
    if (s >= 127) return false;
    *q = n >> s;
    const Uint128 rem = n & ((Uint128{1} << s) - 1);
    const Uint128 one_half = Uint128{1} << (s - 1);
    *half = rem < one_half ? -1 : rem == one_half ? 0 : 1;
    return true;
  }
  const int j = -k;
  // 5^27 < 2^63 keeps twice the remainder in range, and a shift up to 74
  // keeps m << (e - j) below 2^127.
  if (j > 27 || e < j || e - j > 74) return false;
  const Uint128 num = Uint128{m} << (e - j);
  const Uint128 den = kPow5[static_cast<std::size_t>(j)];
  *q = num / den;
  const Uint128 twice_rem = 2 * (num - *q * den);
  *half = twice_rem < den ? -1 : twice_rem == den ? 0 : 1;
  return true;
}

/// The two digits of each value below 100, in order.
inline constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> t{};
  for (std::size_t v = 0; v < 100; ++v) {
    t[2 * v] = static_cast<char>('0' + v / 10);
    t[2 * v + 1] = static_cast<char>('0' + v % 10);
  }
  return t;
}();

/// The eight digits of v < 10^8, leading zeros included.
inline void write_8_digits(char* p, std::uint32_t v) {
  const std::uint32_t hi = v / 10000;
  const std::uint32_t lo = v % 10000;
  std::memcpy(p, &kDigitPairs[2 * (hi / 100)], 2);
  std::memcpy(p + 2, &kDigitPairs[2 * (hi % 100)], 2);
  std::memcpy(p + 4, &kDigitPairs[2 * (lo / 100)], 2);
  std::memcpy(p + 6, &kDigitPairs[2 * (lo % 100)], 2);
}

/// The seventeen digits of d in [10^16, 10^17).
inline void write_17_digits(char* p, std::uint64_t d) {
  constexpr std::uint64_t k1e8 = 100'000'000;
  const std::uint64_t rest = d % (k1e8 * k1e8);
  p[0] = static_cast<char>('0' + d / (k1e8 * k1e8));
  write_8_digits(p + 1, static_cast<std::uint32_t>(rest / k1e8));
  write_8_digits(p + 9, static_cast<std::uint32_t>(rest % k1e8));
}

/// "%.17g" of the normal double (-1)^negative * m * 2^e, m in [2^52, 2^53),
/// written at `buf`; nullptr where the exact arithmetic does not reach or
/// the 17-digit rounding is an exact tie, both left to std::to_chars.
///
/// X = floor(log10 |v|) is estimated from the binary exponent and corrected
/// by one, and D = round(|v| * 10^(16 - X)), in [10^16, 10^17), is computed
/// exactly; a carry to 10^17 bumps X.  The layout is printf's: fixed when
/// -4 <= X < 17, else exponent with at least two exponent digits; trailing
/// zeros are dropped, and then a bare point.
inline char* format_normal17(char* buf, bool negative, std::uint64_t m,
                             int e) {
  constexpr std::uint64_t kLow = 10'000'000'000'000'000;   // 10^16
  constexpr std::uint64_t kHigh = 100'000'000'000'000'000;  // 10^17
  // floor((e + 52) * log10 2), exact for |e + 52| <= 1650: 10^x <= |v|.
  int x = ((e + 52) * 78913) >> 18;
  Uint128 q = 0;
  int half = 0;
  if (!scale_pow10(m, e, 16 - x, &q, &half)) return nullptr;
  if (q >= kHigh) {
    ++x;
    if (!scale_pow10(m, e, 16 - x, &q, &half)) return nullptr;
  }
  if (half == 0 || q < kLow || q >= kHigh) return nullptr;
  auto d = static_cast<std::uint64_t>(q) + (half > 0 ? 1 : 0);
  if (d == kHigh) {
    d = kLow;
    ++x;
  }

  char* p = buf;
  if (negative) *p++ = '-';
  if (x >= -4 && x < 17) {
    if (x < 0) {  // 0.000ddd: the zeros, then the digits
      std::memcpy(p, "0.000", 5);
      p += 1 - x;
    }
    // Seventeen digits from p on; the last nonzero one ends the number.
    write_17_digits(p, d);
    int n = 17;
    while (p[n - 1] == '0') --n;
    if (x < 0) return p + n;
    const int whole = x + 1;  // digits before the point
    if (n <= whole) return p + whole;
    std::memmove(p + whole + 1, p + whole,
                 static_cast<std::size_t>(n - whole));
    p[whole] = '.';
    return p + n + 1;
  }
  // d.ddde+XX: the digits from p + 1 on, the first moved in front of the
  // point.
  write_17_digits(p + 1, d);
  int n = 17;
  while (p[n] == '0') --n;
  p[0] = p[1];
  p[1] = '.';
  p += n > 1 ? n + 1 : 1;
  *p++ = 'e';
  *p++ = x < 0 ? '-' : '+';
  const int ax = x < 0 ? -x : x;  // below 100 on this path
  *p++ = static_cast<char>('0' + ax / 10);
  *p++ = static_cast<char>('0' + ax % 10);
  return p;
}

}  // namespace detail

/// Locale-independent double formatting: '.' decimal point, no digit
/// grouping, 17 significant digits in the shortest of fixed and exponent
/// notation (printf's "%.17g"; non-finite values print as "inf", "-inf",
/// "nan" or "-nan").  Seventeen digits (max_digits10) round-trip every
/// finite double exactly, which the campaign journal relies on for
/// bit-identical resume.  Neither writer consults a locale.  Writes into
/// `buf`, which must hold kFormatDoubleBytes, and returns one past the last
/// character.
///
/// A normal double from about 1e-16 to 1e43 is written by
/// detail::format_normal17 in exact integer arithmetic; zero, subnormals,
/// non-finite values, the magnitudes beyond and the exact 17-digit ties go
/// through std::to_chars(general, 17), whose bytes the fast path equals
/// (tests/test_num_format.cpp).
inline constexpr std::size_t kFormatDoubleBytes =
    sizeof("-1.7976931348623157e+308") - 1;  // the longest output
inline char* format_double(char* buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const auto biased = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased != 0 && biased != 0x7FF) {
    const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                            (std::uint64_t{1} << 52);
    if (char* end = detail::format_normal17(buf, (bits >> 63) != 0, m,
                                            biased - 1075)) {
      return end;
    }
  }
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

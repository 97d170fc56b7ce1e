// Differential pin of the number codecs (support/num_format.hpp): every
// byte format_double writes and every accept/reject decision and bit
// parse_double returns must match the string-stream codecs they replaced,
// kept here verbatim as the reference; parse_int must match std::stoi and
// std::stoull, less the latter's wrap of negative values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/num_format.hpp"

namespace kcoup {
namespace {

// --- Reference: the stream codecs, verbatim -------------------------------

std::string reference_format_double(double v, int precision = 17) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(precision);
  out << v;
  return out.str();
}

std::optional<double> reference_parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::istringstream in{std::string(s)};
  in.imbue(std::locale::classic());
  double v = 0.0;
  in >> v;
  if (in.fail()) return std::nullopt;
  in >> std::ws;
  if (!in.eof()) return std::nullopt;
  return v;
}

// --- Helpers ----------------------------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// Deterministic xorshift so every run checks the same inputs.
struct XorShift {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Same accept/reject decision and, when accepted, the same bits.
void expect_same_parse(std::string_view text) {
  const auto want = reference_parse_double(text);
  const auto got = support::parse_double(text);
  ASSERT_EQ(got.has_value(), want.has_value())
      << "accept/reject differs for \"" << text << "\"";
  if (want.has_value()) {
    EXPECT_EQ(bits_of(*got), bits_of(*want)) << "\"" << text << "\"";
  }
}

/// format_double writes the reference's bytes, and parsing them back gives
/// the reference's decision and bits.
void expect_same_codec(double v) {
  const std::string want = reference_format_double(v);
  const std::string got = support::format_double(v);
  ASSERT_EQ(got, want) << "bits 0x" << std::hex << bits_of(v);
  expect_same_parse(got);
}

std::vector<double> edge_values() {
  using L = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.1,
          1.0 / 3.0,
          L::min(),
          -L::min(),
          L::denorm_min(),
          -L::denorm_min(),
          L::max(),
          L::lowest(),
          L::epsilon(),
          1e-5,
          1e-4,
          9.9999999999999991e-5,
          1e16,
          1e17,
          123456789012345678.0,
          9007199254740993.0,
          L::infinity(),
          -L::infinity(),
          L::quiet_NaN(),
          -L::quiet_NaN(),
          from_bits(0x7ff0000000000001ull),  // signalling NaN
          from_bits(0xfff8000000000001ull)};
}

// --- format_double ----------------------------------------------------------

TEST(NumFormatTest, EdgeValuesFormatAndParseLikeTheStream) {
  for (double v : edge_values()) expect_same_codec(v);
  // The longest output fits the fixed buffer.
  EXPECT_EQ(support::format_double(std::numeric_limits<double>::lowest()),
            "-1.7976931348623157e+308");
}

TEST(NumFormatTest, RandomBitPatternsFormatAndParseLikeTheStream) {
  // Every exponent and sign, so NaNs and subnormals included; the two
  // infinities are among the edge values.
  XorShift rng{0x9e3779b97f4a7c15ull};
  for (int i = 0; i < 100000; ++i) {
    expect_same_codec(from_bits(rng.next()));
    if (HasFatalFailure()) return;
  }
}

TEST(NumFormatTest, UniformValuesFormatAndParseLikeTheStream) {
  // The range the served seconds and errors live in.
  XorShift rng{0xd1b54a32d192ed03ull};
  for (int i = 0; i < 100000; ++i) {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
    expect_same_codec(1e-6 + u * (1e3 - 1e-6));
    if (HasFatalFailure()) return;
  }
}

// --- parse_double -----------------------------------------------------------

TEST(NumFormatTest, EdgeStringsParseLikeTheStream) {
  const std::string fifty_digits(50, '7');
  const std::vector<std::string> texts = {
      // Only the stream accepts these: a sign, whitespace, underflow.
      "+1", "+.5", "+0", " 1", "1 ", "\t2\n", " -3.5e2 ", "1e-400",
      "-1e-400", "2.4e-324", "4.9e-324", "2.5e-324", "5e-324", "1e-320",
      // Only from_chars accepts these; the stream refuses them.
      "inf", "-inf", "INF", "infinity", "nan", "-nan", "NaN", "nan(123)",
      // Both refuse these.
      "1e400", "-1e400", "1.7976931348623159e308", "0x1p3", "0x10", "1e",
      "1e+", "1e-", "1,5", "-", "+", ".", "e5", "1e5x", "1..2", "--1", "+-1",
      "1 2", "", " ", std::string("1\0", 2),
      // Both accept these.
      "1.", ".5", "-.5", "-0", "0", "00", "007", "1.5e3", "1E3", "1e+05",
      "0.1", "1.7976931348623157e308", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "4.9406564584124654e-324",
      "9007199254740993", "1e0000000000000000000001",
      // 50-digit mantissas, plain and scaled into the subnormal range.
      fifty_digits, "-" + fifty_digits, "0." + fifty_digits,
      fifty_digits + "e-360", "1" + std::string(49, '0') + "1"};
  for (const std::string& text : texts) {
    expect_same_parse(text);
    if (HasFatalFailure()) return;
  }
  // Pinned decisions the reference makes, so a regression in it shows too.
  EXPECT_EQ(support::parse_double("+4"), 4.0);
  EXPECT_EQ(support::parse_double("1e-400"), 0.0);
  EXPECT_FALSE(support::parse_double("inf").has_value());
  EXPECT_FALSE(support::parse_double("nan").has_value());
}

TEST(NumFormatTest, RandomShortStringsParseLikeTheStream) {
  static constexpr std::string_view kAlphabet = "0123456789+-.eE ixnaf\t";
  XorShift rng{0x2545f4914f6cdd1dull};
  std::string text;
  for (int i = 0; i < 400000; ++i) {
    text.clear();
    const std::size_t length = 1 + rng.next() % 8;
    for (std::size_t k = 0; k < length; ++k) {
      text += kAlphabet[rng.next() % kAlphabet.size()];
    }
    expect_same_parse(text);
    if (HasFatalFailure()) return;
  }
}

// --- parse_int against std::stoi / std::stoull ----------------------------

/// What std::stoi (int) or std::stoull (uint64) accepted once the caller
/// checked that the whole string was read.
template <typename Int>
std::optional<Int> reference_parse_int(const std::string& s) {
  try {
    std::size_t pos = 0;
    Int v{};
    if constexpr (std::is_signed_v<Int>) {
      v = std::stoi(s, &pos);
    } else {
      v = std::stoull(s, &pos);
    }
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// parse_int accepts exactly what the reference does, with the same value,
/// except that it refuses the reference's wrap of a negative unsigned.
template <typename Int>
void expect_int_like_reference(const std::string& text) {
  const std::optional<Int> want = reference_parse_int<Int>(text);
  const std::optional<Int> got = support::parse_int<Int>(text);
  const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
  const bool wrapped = std::is_unsigned_v<Int> && want.has_value() &&
                       *want != 0 && text[first] == '-';
  if (wrapped) {
    EXPECT_FALSE(got.has_value()) << "'" << text << "'";
  } else {
    EXPECT_EQ(got, want) << "'" << text << "'";
  }
}

TEST(NumFormatTest, ParseIntAcceptsWhatStoiAndStoullAccept) {
  const std::vector<std::string> texts = {
      "0", "-0", "+0", "42", "-42", "+42", " 42", " \t\n\v\f\r42", "42 ",
      "4x", "x4", "", " ", "+", "-", "+-1", "-+1", "--1", "++1", "- 1",
      "2147483647", "2147483648", "-2147483648", "-2147483649", "0x10",
      "1e3", "1.0", "007", "18446744073709551615", "18446744073709551616",
      "-1", "-5", "-18446744073709551615", std::string("1\0", 2)};
  for (const std::string& text : texts) {
    expect_int_like_reference<int>(text);
    expect_int_like_reference<std::uint64_t>(text);
  }
  // The one departure from std::stoull: no negative wraps to 2^64 - 1.
  EXPECT_FALSE(support::parse_int<std::uint64_t>("-1").has_value());
  EXPECT_EQ(support::parse_int<std::uint64_t>("-0"), 0u);
  EXPECT_EQ(support::parse_int<int>(" -7"), -7);
}

TEST(NumFormatTest, RandomShortStringsParseIntLikeStoiAndStoull) {
  static constexpr std::string_view kAlphabet = "0123456789+- \tx";
  XorShift rng{0x2b7e151628aed2a6ull};
  std::string text;
  for (int i = 0; i < 200000; ++i) {
    text.clear();
    const std::size_t length = 1 + rng.next() % 8;
    for (std::size_t k = 0; k < length; ++k) {
      text += kAlphabet[rng.next() % kAlphabet.size()];
    }
    expect_int_like_reference<int>(text);
    expect_int_like_reference<std::uint64_t>(text);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace kcoup

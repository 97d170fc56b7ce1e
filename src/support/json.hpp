#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/num_format.hpp"

namespace kcoup::support::json {

namespace detail {

/// Byte classes of the scanner, one 256-entry table read per byte instead
/// of a chain of compares.
enum : unsigned char {
  kStructural = 1,  ///< '"' '{' '}' '[' ']' ',': what the field scan stops at
  kStringStop = 2,  ///< '"' '\\': what a string body is skipped to
  kSpace = 4,       ///< the JSON whitespace bytes
};

inline constexpr std::array<unsigned char, 256> kByteClass = [] {
  std::array<unsigned char, 256> t{};
  for (const char c : {'"', '{', '}', '[', ']', ','}) {
    t[static_cast<unsigned char>(c)] |= kStructural;
  }
  t['"'] |= kStringStop;
  t['\\'] |= kStringStop;
  for (const char c : {' ', '\t', '\n', '\r'}) {
    t[static_cast<unsigned char>(c)] |= kSpace;
  }
  return t;
}();

[[nodiscard]] inline bool has_class(char c, unsigned char cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

[[nodiscard]] inline bool is_space(char c) { return has_class(c, kSpace); }

/// The escape of each byte inside a JSON string literal: 0 for a byte
/// written as it is, else the letter after the backslash ('u' for
/// \u00XX).
inline constexpr std::array<char, 256> kEscape = [] {
  std::array<char, 256> t{};
  for (std::size_t u = 0; u < 0x20; ++u) t[u] = 'u';
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\t'] = 't';
  t['\r'] = 'r';
  t['\b'] = 'b';
  t['\f'] = 'f';
  return t;
}();

/// Offset of the quote closing the string that opens at `open`, or npos
/// when the string is unterminated.  A backslash consumes the next byte.
[[nodiscard]] inline std::size_t string_end(std::string_view text,
                                            std::size_t open) {
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    if (!has_class(text[i], kStringStop)) continue;
    if (text[i] == '"') return i;
    ++i;
  }
  return std::string_view::npos;
}

[[nodiscard]] inline int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

inline void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace detail

/// Most bytes write_escaped writes per input byte (a control byte's
/// \u00XX).
inline constexpr std::size_t kMaxEscapedBytes = 6;

/// Write `s` escaped for use inside a JSON string literal at `out`, which
/// must have room for kMaxEscapedBytes * s.size() bytes, and return one
/// past the last byte written.  Quotes and backslashes, the named escapes
/// (\n \t \r \b \f), and every other byte below 0x20 as \u00XX (raw
/// control bytes are invalid JSON).  Bytes >= 0x80 pass through untouched,
/// so UTF-8 stays UTF-8.  string_value decodes all of these, making
/// escape→parse a lossless round trip for arbitrary byte strings.
inline char* write_escaped(char* out, std::string_view s) {
  static constexpr const char* kHex = "0123456789abcdef";
  for (const char c : s) {
    const char e = detail::kEscape[static_cast<unsigned char>(c)];
    if (e == 0) {
      *out++ = c;
      continue;
    }
    *out++ = '\\';
    *out++ = e;
    if (e == 'u') {
      const auto u = static_cast<unsigned char>(c);
      *out++ = '0';
      *out++ = '0';
      *out++ = kHex[u >> 4];
      *out++ = kHex[u & 0xF];
    }
  }
  return out;
}

/// Append `s` to `out` escaped as write_escaped escapes it.
inline void append_escaped(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + kMaxEscapedBytes * s.size());
  out.resize(static_cast<std::size_t>(write_escaped(out.data() + at, s) -
                                      out.data()));
}

/// append_escaped into a new string.
[[nodiscard]] inline std::string escape(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

/// Walk the top-level fields of the one JSON object in `text`, in one pass
/// and in text order, calling visit(key, value) as each value closes: `key`
/// is the raw bytes between the key's quotes, undecoded, and `value` the
/// value's bytes with surrounding whitespace trimmed, e.g. `true`, `12`,
/// `"a\"b"`, `{...}`.  Duplicate keys are all visited.  Returns false when
/// visit returns false, or when the text is not one complete object, which
/// may be found only after some fields were visited: a decoder keeps
/// nothing it read from a walk that returns false.
///
/// Rules:
///   - a string is a key only when the next non-space byte is ':', and only
///     at the object's own depth: keys inside nested values never count;
///   - a backslash inside a string consumes the next byte;
///   - whitespace is allowed around the colon;
///   - a value runs to the next ',' or key at the object's depth, or to the
///     closing '}';
///   - the text must open with '{', close at its last byte, and terminate
///     every string, so a truncated record is never mistaken for a shorter
///     whole one.
template <typename Visit>
[[nodiscard]] bool for_each_field(std::string_view text, Visit&& visit) {
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    return false;
  }
  const char* const s = text.data();
  const std::size_t last = text.size() - 1;
  std::string_view key;
  bool in_value = false;  // a field's value is being scanned
  std::size_t value_start = 0;
  const auto close_value = [&](std::size_t end) {
    in_value = false;
    while (end > value_start && detail::is_space(s[end - 1])) --end;
    return visit(key, text.substr(value_start, end - value_start));
  };
  int depth = 1;
  for (std::size_t i = 1;; ++i) {
    // The closing '}' is structural, so this skip stops at the last byte
    // at the latest, and every case below leaves i at or before it.
    while (!detail::has_class(s[i], detail::kStructural)) ++i;
    switch (s[i]) {
      case '"': {
        const std::size_t close = detail::string_end(text, i);
        if (close == std::string_view::npos) return false;
        std::size_t next = close + 1;
        while (detail::is_space(s[next])) ++next;  // stops at '}' or before
        if (depth != 1 || s[next] != ':') {
          i = close;
          break;
        }
        if (in_value && !close_value(i)) return false;
        key = text.substr(i + 1, close - i - 1);
        in_value = true;
        value_start = next + 1;
        while (detail::is_space(s[value_start])) ++value_start;
        i = value_start - 1;
        break;
      }
      case ',':
        if (depth == 1 && in_value && !close_value(i)) return false;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      default:  // '}' or ']'
        if (--depth == 0) {
          if (i != last) return false;
          return !in_value || close_value(i);
        }
        if (i == last) return false;  // unbalanced: it closed a nested value
        break;
    }
  }
}

/// Walk the `{...}` elements of the array value `array` (as for_each_field
/// hands it over), in order, calling visit(element) with each element's
/// text; other elements are skipped.  Returns false when the value is not
/// an array, a string in it is unterminated, its brackets do not balance,
/// or visit returns false.
template <typename Visit>
[[nodiscard]] bool for_each_object(std::string_view array, Visit&& visit) {
  constexpr std::size_t kNone = std::string_view::npos;
  if (array.size() < 2 || array.front() != '[' || array.back() != ']') {
    return false;
  }
  int depth = 0;  // nesting inside the array
  std::size_t element_start = kNone;
  for (std::size_t i = 1; i + 1 < array.size(); ++i) {
    switch (array[i]) {
      case '"':
        i = detail::string_end(array, i);
        if (i == kNone) return false;
        break;
      case '{':
      case '[':
        if (depth++ == 0) element_start = array[i] == '{' ? i : kNone;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0 && element_start != kNone &&
            !visit(array.substr(element_start, i - element_start + 1))) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  return depth == 0;
}

/// One JSON object's top-level fields, collected by for_each_field, so
/// the accessors decode one value each without rescanning.  The Object
/// views the text it was parsed from, which must outlive it.  The first of
/// duplicate keys is the one the accessors read.
class Object {
 public:
  /// Nullopt unless for_each_field accepts the text.
  [[nodiscard]] static std::optional<Object> parse(std::string_view text);

  /// The value's bytes with surrounding whitespace trimmed, e.g. `true`,
  /// `12`, `"a\"b"`, `{...}`; nullopt when the key is absent.
  [[nodiscard]] std::optional<std::string_view> raw(
      std::string_view key) const;
  /// A decoded string value (string_value).
  [[nodiscard]] std::optional<std::string> string(std::string_view key) const;
  /// A number value, parsed locale-independently (support::parse_double).
  [[nodiscard]] std::optional<double> number(std::string_view key) const;
  /// A nested object value.
  [[nodiscard]] std::optional<Object> object(std::string_view key) const;

  struct Field {
    std::string_view key;  ///< raw bytes between the quotes, undecoded
    std::string_view value;  ///< as raw() returns it
  };
  /// Every top-level field in text order, duplicates included.
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// Decode a raw string value (as for_each_field hands it over, quotes
/// included) into *out, replacing its contents: the bytes up to the first
/// unescaped quote, unescaped runs assigned whole.  \uXXXX decodes to UTF-8
/// (BMP only; write_escaped never writes surrogate pairs); an unknown
/// escape is the literal byte.  False when the value is not a string or an
/// escape or the string is cut short; *out is then unspecified.  The one
/// decoder of escapes.
[[nodiscard]] inline bool string_value(std::string_view raw, std::string* out);

/// string_value into a new string; nullopt where it returns false.
[[nodiscard]] inline std::optional<std::string> string_value(
    std::string_view raw);

/// How an integer value's text reads (see parse_integer).
enum class IntegerRead {
  kNotNumber,  ///< the text is no number at all
  kRefused,    ///< a number, but fractional or outside the bounds
  kRead,       ///< an integral number within the bounds, stored
};

/// Read an integer value's text (as Object::raw returns it) into *out.  The
/// one integer rule for every untrusted integer: a number reads only when
/// it is integral and lies in [lo, hi] (T's range by default), so it is
/// never truncated, and never cast where the cast would be undefined
/// behaviour.  Exponent and fraction spellings of an integral value
/// ("4.0", "1e3") read as that integer.  Every text reads as
/// support::parse_double reads it; up to 15 plain digits, which a double
/// holds exactly, are read without the double.
template <typename T>
[[nodiscard]] IntegerRead parse_integer(
    std::string_view text, T* out, T lo = std::numeric_limits<T>::min(),
    T hi = std::numeric_limits<T>::max());

inline std::optional<Object> Object::parse(std::string_view text) {
  Object obj;
  obj.fields_.reserve(16);
  const bool whole =
      for_each_field(text, [&obj](std::string_view key, std::string_view value) {
        obj.fields_.push_back({key, value});
        return true;
      });
  if (!whole) return std::nullopt;
  return obj;
}

inline std::optional<std::string_view> Object::raw(
    std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return f.value;
  }
  return std::nullopt;
}

inline bool string_value(std::string_view raw, std::string* out) {
  if (raw.empty() || raw.front() != '"') return false;
  out->clear();
  std::size_t run = 1;  // start of the bytes not yet copied
  for (std::size_t i = 1; i < raw.size(); ++i) {
    if (!detail::has_class(raw[i], detail::kStringStop)) continue;
    out->append(raw.data() + run, i - run);
    if (raw[i] == '"') return true;
    if (++i >= raw.size()) return false;
    run = i + 1;
    switch (raw[i]) {
      case 'n': *out += '\n'; break;
      case 't': *out += '\t'; break;
      case 'r': *out += '\r'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'u': {
        if (i + 4 >= raw.size()) return false;
        unsigned code = 0;
        for (std::size_t k = 1; k <= 4; ++k) {
          const int d = detail::hex_value(raw[i + k]);
          if (d < 0) return false;
          code = code * 16 + static_cast<unsigned>(d);
        }
        i += 4;
        run = i + 1;
        detail::append_utf8(*out, code);
        break;
      }
      default: *out += raw[i]; break;  // \" \\ \/ and unknown escapes
    }
  }
  return false;
}

inline std::optional<std::string> string_value(std::string_view raw) {
  std::string out;
  if (!string_value(raw, &out)) return std::nullopt;
  return out;
}

inline std::optional<std::string> Object::string(std::string_view key) const {
  const auto v = raw(key);
  if (!v) return std::nullopt;
  return string_value(*v);
}

inline std::optional<double> Object::number(std::string_view key) const {
  const auto v = raw(key);
  if (!v) return std::nullopt;
  return parse_double(*v);
}

template <typename T>
IntegerRead parse_integer(std::string_view text, T* out, T lo, T hi) {
  // Both range ends are exact doubles: -2^digits (or 0) and 2^digits.
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
  // 15 plain digits or fewer: below 2^53, so the double reads this value.
  constexpr std::size_t kPlainDigits = 15;
  if (!text.empty() && text.size() <= kPlainDigits) {
    std::uint64_t digits = 0;
    std::size_t i = 0;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
      digits = digits * 10 + static_cast<std::uint64_t>(text[i] - '0');
    }
    if (i == text.size()) {
      if (!(static_cast<double>(digits) < past_max)) {
        return IntegerRead::kRefused;
      }
      const T value = static_cast<T>(digits);
      if (value < lo || value > hi) return IntegerRead::kRefused;
      *out = value;
      return IntegerRead::kRead;
    }
  }
  const auto v = parse_double(text);
  if (!v) return IntegerRead::kNotNumber;
  const double min = std::numeric_limits<T>::is_signed ? -past_max : 0.0;
  if (!(*v >= min && *v < past_max) || std::trunc(*v) != *v) {
    return IntegerRead::kRefused;
  }
  const T value = static_cast<T>(*v);
  if (value < lo || value > hi) return IntegerRead::kRefused;
  *out = value;
  return IntegerRead::kRead;
}

/// Store integer field `name` of `json`, when present, into *out.  False
/// when parse_integer refuses the value: a fraction, or a value outside
/// T's range.  A value that is no number reads as absent.  Static, so
/// callers inline it like a file-local helper.
template <typename T>
[[nodiscard]] static bool read_integer(const Object& json, const char* name,
                                       T* out) {
  const auto v = json.raw(name);
  return !v || parse_integer(*v, out) != IntegerRead::kRefused;
}

inline std::optional<Object> Object::object(std::string_view key) const {
  const auto v = raw(key);
  if (!v) return std::nullopt;
  return parse(*v);
}

}  // namespace kcoup::support::json

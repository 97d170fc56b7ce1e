#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/num_format.hpp"

namespace kcoup::support::json {

/// Append `s` escaped for use inside a JSON string literal: quotes and
/// backslashes, the named escapes (\n \t \r \b \f), and every other byte
/// below 0x20 as \u00XX (raw control bytes are invalid JSON).  Bytes >=
/// 0x80 pass through untouched, so UTF-8 stays UTF-8.  Runs that need no
/// escape are appended whole.  Object::string decodes all of these, making
/// escape→parse a lossless round trip for arbitrary byte strings.
inline void append_escaped(std::string& out, std::string_view s) {
  static constexpr const char* kHex = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto u = static_cast<unsigned char>(s[i]);
    if (u >= 0x20 && u != '"' && u != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (u) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        out += "\\u00";
        out += kHex[(u >> 4) & 0xF];
        out += kHex[u & 0xF];
        break;
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// append_escaped into a new string.
[[nodiscard]] inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

/// One JSON object, its top-level keys indexed in a single pass over the
/// text.  The accessors then decode one value each without rescanning.
/// The Object views the text it was parsed from, which must outlive it.
///
/// Rules:
///   - a string is a key only when the next non-space byte is ':', and only
///     at the object's own depth: keys inside nested values never count;
///   - a backslash inside a string consumes the next byte;
///   - the first of duplicate keys wins;
///   - whitespace is allowed around the colon;
///   - a value runs to the next ',' or the closing '}' at the object's
///     depth, and an accessor decodes its first token;
///   - parse refuses anything but one complete object: the text opens with
///     '{', closes at its last byte, and terminates every string — so a
///     truncated record is never mistaken for a shorter whole one.
class Object {
 public:
  [[nodiscard]] static std::optional<Object> parse(std::string_view text);

  /// The value's bytes with surrounding whitespace trimmed, e.g. `true`,
  /// `12`, `"a\"b"`, `{...}`; nullopt when the key is absent.
  [[nodiscard]] std::optional<std::string_view> raw(
      std::string_view key) const;
  /// A decoded string value.  \uXXXX decodes to UTF-8 (BMP only; escape
  /// never writes surrogate pairs); an unknown escape is the literal byte.
  [[nodiscard]] std::optional<std::string> string(std::string_view key) const;
  /// A number value, parsed locale-independently (support::parse_double).
  [[nodiscard]] std::optional<double> number(std::string_view key) const;
  /// A nested object value.
  [[nodiscard]] std::optional<Object> object(std::string_view key) const;
  /// The `{...}` elements of an array value, in order (other elements are
  /// skipped); nullopt when the value is not an array or an element object
  /// is malformed.
  [[nodiscard]] std::optional<std::vector<Object>> objects(
      std::string_view key) const;

  struct Field {
    std::string_view key;  ///< raw bytes between the quotes, undecoded
    std::string_view value;  ///< as raw() returns it
  };
  /// Every top-level field in text order, duplicates included, for a
  /// decoder that reads many keys in one walk (the first duplicate is the
  /// one the accessors read).
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// Decode a raw string value (as Object::raw returns it, quotes included).
/// \uXXXX decodes to UTF-8 (BMP only; escape never writes surrogate pairs);
/// an unknown escape is the literal byte.  Nullopt when the value is not a
/// string or an escape is cut short.
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
/// ("4.0", "1e3") read as that integer.
template <typename T>
[[nodiscard]] IntegerRead parse_integer(
    std::string_view text, T* out, T lo = std::numeric_limits<T>::min(),
    T hi = std::numeric_limits<T>::max());

namespace detail {

[[nodiscard]] inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Offset of the quote closing the string that opens at `open`, or npos
/// when the string is unterminated.
[[nodiscard]] inline std::size_t string_end(std::string_view text,
                                            std::size_t open) {
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i;
    }
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

inline std::optional<Object> Object::parse(std::string_view text) {
  constexpr std::size_t kNone = std::string_view::npos;
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    return std::nullopt;
  }
  Object obj;
  obj.fields_.reserve(16);
  std::size_t open_field = kNone;  // the field whose value is being scanned
  std::size_t value_start = 0;
  const auto close_value = [&](std::size_t end) {
    if (open_field == kNone) return;
    while (end > value_start && detail::is_space(text[end - 1])) --end;
    obj.fields_[open_field].value =
        text.substr(value_start, end - value_start);
    open_field = kNone;
  };
  int depth = 1;
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      const std::size_t close = detail::string_end(text, i);
      if (close == kNone) return std::nullopt;
      std::size_t next = close + 1;
      while (next < text.size() && detail::is_space(text[next])) ++next;
      if (depth != 1 || next >= text.size() || text[next] != ':') {
        i = close;
        continue;
      }
      close_value(i);
      obj.fields_.push_back({text.substr(i + 1, close - i - 1), {}});
      open_field = obj.fields_.size() - 1;
      value_start = next + 1;
      while (value_start < text.size() &&
             detail::is_space(text[value_start])) {
        ++value_start;
      }
      i = value_start - 1;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) {
        if (i + 1 != text.size()) return std::nullopt;
        close_value(i);
        return obj;
      }
    } else if (c == ',' && depth == 1) {
      close_value(i);
    }
  }
  return std::nullopt;  // unbalanced: the last '}' closed a nested value
}

inline std::optional<std::string_view> Object::raw(
    std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return f.value;
  }
  return std::nullopt;
}

inline std::optional<std::string> string_value(std::string_view raw) {
  if (raw.empty() || raw.front() != '"') return std::nullopt;
  std::string out;
  std::size_t run = 1;  // start of the bytes not yet appended
  for (std::size_t i = 1; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    if (c == '"') return out;
    if (++i >= raw.size()) return std::nullopt;
    run = i + 1;
    switch (raw[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 >= raw.size()) return std::nullopt;
        unsigned code = 0;
        for (std::size_t k = 1; k <= 4; ++k) {
          const int d = detail::hex_value(raw[i + k]);
          if (d < 0) return std::nullopt;
          code = code * 16 + static_cast<unsigned>(d);
        }
        i += 4;
        run = i + 1;
        detail::append_utf8(out, code);
        break;
      }
      default: out += raw[i]; break;  // \" \\ \/ and unknown escapes
    }
  }
  return std::nullopt;
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
  const auto v = parse_double(text);
  if (!v) return IntegerRead::kNotNumber;
  // Both range ends are exact doubles: -2^digits (or 0) and 2^digits.
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
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

inline std::optional<std::vector<Object>> Object::objects(
    std::string_view key) const {
  constexpr std::size_t kNone = std::string_view::npos;
  const auto v = raw(key);
  if (!v || v->size() < 2 || v->front() != '[' || v->back() != ']') {
    return std::nullopt;
  }
  std::vector<Object> out;
  int depth = 0;  // nesting inside the array
  std::size_t element_start = kNone;
  for (std::size_t i = 1; i + 1 < v->size(); ++i) {
    const char c = (*v)[i];
    if (c == '"') {
      i = detail::string_end(*v, i);
      if (i == kNone) return std::nullopt;
    } else if (c == '{' || c == '[') {
      if (depth++ == 0) element_start = c == '{' ? i : kNone;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return std::nullopt;
      if (depth == 0 && element_start != kNone) {
        auto element = parse(v->substr(element_start, i - element_start + 1));
        if (!element) return std::nullopt;
        out.push_back(std::move(*element));
      }
    }
  }
  if (depth != 0) return std::nullopt;
  return out;
}

}  // namespace kcoup::support::json

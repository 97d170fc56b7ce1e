// Differential pin of the wire codecs (serve/protocol.hpp, serve/framing.hpp,
// support/json.hpp): the sized-region encoders must write the same bytes as
// the string-building encoders they replaced, and the field-scan decoders
// must accept and refuse what the per-key decoders accepted and refused,
// with the same fields; so must support::json::Object, field for field.
// The replaced codecs are kept here verbatim as the reference, their
// namespace qualifiers aside.  Two differences are intended.  The integer
// rule: a fractional value in an integer field, which the reference
// truncated, is refused now; the same rule is checked on every integer
// surface with the boundary values 0, 1, -1, 4.9, 2^31 - 1, 2^31, 2^53 and
// 1e300.  And a trace id longer than kMaxTraceIdBytes is cut at a UTF-8
// character boundary, where the reference cut inside a character.
// The decoders read their own encoders' layout before the general field
// scan; the seeds hold both kinds of valid text, and the layout tests pin
// each way out of the first path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/framing.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup {
namespace {

// --- Reference: the replaced codecs, verbatim --------------------------------

namespace ref {

using serve::kMaxTraceIdBytes;
using serve::Prediction;
using serve::QueryKey;
using serve::Request;
using serve::RequestOp;
using support::parse_double;

// --- support/json.hpp ---

/// Escape a byte string for use inside a JSON string literal: quotes and
/// backslashes, the named escapes (\n \t \r \b \f), and every other byte
/// below 0x20 as \u00XX (raw control bytes are invalid JSON).  Bytes >=
/// 0x80 pass through untouched, so UTF-8 stays UTF-8.  Object::string
/// decodes all of these, making escape→parse a lossless round trip for
/// arbitrary byte strings.
[[nodiscard]] inline std::string escape(std::string_view s) {
  static constexpr const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[(u >> 4) & 0xF];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
        break;
      }
    }
  }
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

 private:
  struct Field {
    std::string_view key;  ///< raw bytes between the quotes, undecoded
    std::string_view value;
  };
  std::vector<Field> fields_;
};

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

inline std::optional<std::string> Object::string(std::string_view key) const {
  const auto v = raw(key);
  if (!v || v->empty() || v->front() != '"') return std::nullopt;
  std::string out;
  for (std::size_t i = 1; i < v->size(); ++i) {
    const char c = (*v)[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= v->size()) return std::nullopt;
    switch ((*v)[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 >= v->size()) return std::nullopt;
        unsigned code = 0;
        for (std::size_t k = 1; k <= 4; ++k) {
          const int d = detail::hex_value((*v)[i + k]);
          if (d < 0) return std::nullopt;
          code = code * 16 + static_cast<unsigned>(d);
        }
        i += 4;
        detail::append_utf8(out, code);
        break;
      }
      default: out += (*v)[i]; break;  // \" \\ \/ and unknown escapes
    }
  }
  return std::nullopt;
}

inline std::optional<double> Object::number(std::string_view key) const {
  const auto v = raw(key);
  if (!v) return std::nullopt;
  return parse_double(*v);
}

/// Store integer field `name` of `json`, when present, into *out.  False
/// when the value lies outside T's range, where the cast would be undefined
/// behaviour.  The cast truncates toward zero, so exactly the values in
/// (min - 1, max + 1) convert; both bounds are exact doubles.  Static, so
/// callers inline it like a file-local helper (parse_prediction's code).
template <typename T>
[[nodiscard]] static bool read_integer(const Object& json, const char* name,
                                       T* out) {
  const auto v = json.number(name);
  if (!v) return true;
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double before_min =
      std::numeric_limits<T>::is_signed ? -past_max - 1.0 : -1.0;
  if (!(*v > before_min && *v < past_max)) return false;
  *out = static_cast<T>(*v);
  return true;
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


// --- serve/protocol.cpp ---

namespace {


void append_number(std::string& out, const char* name, double v) {
  if (!std::isfinite(v)) return;  // absent => NaN on the reader's side
  out += ",\"";
  out += name;
  out += "\":";
  out += support::format_double(v);
}

void append_string(std::string& out, const char* name, const std::string& v) {
  out += ",\"";
  out += name;
  out += "\":\"";
  out += escape(v);
  out += '"';
}

std::string query_json(const QueryKey& q) {
  std::string out = "{\"app\":\"" + escape(q.application) +
                    "\",\"config\":\"" + escape(q.config) +
                    "\",\"ranks\":" + std::to_string(q.ranks) +
                    ",\"chain\":" + std::to_string(q.chain_length) + "}";
  return out;
}

std::optional<QueryKey> parse_query(const Object& json) {
  const auto app = json.string("app");
  const auto config = json.string("config");
  const auto ranks = json.number("ranks");
  const auto chain = json.number("chain");
  if (!app || !config || !ranks || !chain) return std::nullopt;
  // Bounded before the casts: an out-of-range double-to-int cast is UB.
  constexpr double kMax = std::numeric_limits<int>::max();
  if (*ranks < 1 || *ranks > kMax || *chain < 1 || *chain > kMax) {
    return std::nullopt;
  }
  QueryKey q;
  q.application = *app;
  q.config = *config;
  q.ranks = static_cast<int>(*ranks);
  q.chain_length = static_cast<std::size_t>(*chain);
  return q;
}

std::optional<Prediction> prediction_from(const Object& json) {
  Prediction p;
  p.ok = json.raw("ok") == "true";
  if (auto v = json.string("error")) p.error = std::move(*v);
  if (auto v = json.string("app")) p.key.application = std::move(*v);
  if (auto v = json.string("config")) p.key.config = std::move(*v);
  if (!read_integer(json, "ranks", &p.key.ranks) ||
      !read_integer(json, "chain", &p.key.chain_length) ||
      !read_integer(json, "donor_ranks", &p.donor_ranks) ||
      !read_integer(json, "snapshot", &p.snapshot_version)) {
    return std::nullopt;
  }
  if (const auto v = json.number("coupling_s")) p.coupling_s = *v;
  if (const auto v = json.number("summation_s")) p.summation_s = *v;
  if (const auto v = json.number("actual_s")) p.actual_s = *v;
  if (const auto v = json.number("coupling_err")) p.coupling_error = *v;
  if (const auto v = json.number("summation_err")) p.summation_error = *v;
  if (auto v = json.string("alpha")) p.alpha_source = std::move(*v);
  if (auto v = json.string("inputs")) p.inputs_source = std::move(*v);
  if (auto v = json.string("source")) p.source = std::move(*v);
  if (auto v = json.string("model_form")) p.model_form = std::move(*v);
  if (const auto v = json.string("cache")) p.cache_hit = (*v == "hit");
  return p;
}

}  // namespace

std::optional<Request> parse_request(const std::string& json) {
  const auto request = Object::parse(json);
  if (!request.has_value()) return std::nullopt;
  const auto op = request->string("op");
  if (!op.has_value()) return std::nullopt;
  Request req;
  if (const auto id = request->string("trace_id")) {
    // Truncate here, not at annotation time, so the echoed id and the
    // span's id can never disagree.
    req.trace_id = id->substr(0, kMaxTraceIdBytes);
  }
  if (*op == "ping") {
    req.op = RequestOp::kPing;
    return req;
  }
  if (*op == "stats") {
    req.op = RequestOp::kStats;
    return req;
  }
  if (*op == "metrics") {
    req.op = RequestOp::kMetrics;
    return req;
  }
  if (*op == "slowlog") {
    req.op = RequestOp::kSlowlog;
    return req;
  }
  if (*op == "predict") {
    req.op = RequestOp::kPredict;
    const auto q = parse_query(*request);
    if (!q.has_value()) return std::nullopt;
    req.queries.push_back(*q);
    return req;
  }
  if (*op == "batch") {
    req.op = RequestOp::kBatch;
    const auto elements = request->objects("queries");
    if (!elements.has_value() || elements->empty()) return std::nullopt;
    for (const Object& element : *elements) {
      const auto q = parse_query(element);
      if (!q.has_value()) return std::nullopt;
      req.queries.push_back(*q);
    }
    return req;
  }
  return std::nullopt;
}

std::string attach_trace_id(std::string json, const std::string& trace_id) {
  if (trace_id.empty() || json.empty() || json.back() != '}') return json;
  json.pop_back();
  json += ",\"trace_id\":\"";
  json += escape(trace_id);
  json += "\"}";
  return json;
}

std::string ping_request(const std::string& trace_id) {
  return attach_trace_id("{\"op\":\"ping\"}", trace_id);
}
std::string stats_request(const std::string& trace_id) {
  return attach_trace_id("{\"op\":\"stats\"}", trace_id);
}
std::string metrics_request(const std::string& trace_id) {
  return attach_trace_id("{\"op\":\"metrics\"}", trace_id);
}
std::string slowlog_request(const std::string& trace_id) {
  return attach_trace_id("{\"op\":\"slowlog\"}", trace_id);
}

std::string predict_request(const QueryKey& query,
                            const std::string& trace_id) {
  std::string out = "{\"op\":\"predict\",\"app\":\"" +
                    escape(query.application) + "\",\"config\":\"" +
                    escape(query.config) +
                    "\",\"ranks\":" + std::to_string(query.ranks) +
                    ",\"chain\":" + std::to_string(query.chain_length) + "}";
  return attach_trace_id(std::move(out), trace_id);
}

std::string batch_request(const std::vector<QueryKey>& queries,
                          const std::string& trace_id) {
  std::string out = "{\"op\":\"batch\",\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i != 0) out += ',';
    out += query_json(queries[i]);
  }
  out += "]}";
  return attach_trace_id(std::move(out), trace_id);
}

std::string prediction_json(const Prediction& p) {
  std::string out = p.ok ? "{\"ok\":true" : "{\"ok\":false";
  if (!p.ok) append_string(out, "error", p.error);
  append_string(out, "app", p.key.application);
  append_string(out, "config", p.key.config);
  out += ",\"ranks\":" + std::to_string(p.key.ranks);
  out += ",\"chain\":" + std::to_string(p.key.chain_length);
  append_number(out, "coupling_s", p.coupling_s);
  append_number(out, "summation_s", p.summation_s);
  append_number(out, "actual_s", p.actual_s);
  append_number(out, "coupling_err", p.coupling_error);
  append_number(out, "summation_err", p.summation_error);
  if (!p.alpha_source.empty()) append_string(out, "alpha", p.alpha_source);
  if (!p.inputs_source.empty()) append_string(out, "inputs", p.inputs_source);
  if (!p.source.empty()) append_string(out, "source", p.source);
  if (!p.model_form.empty()) append_string(out, "model_form", p.model_form);
  if (p.donor_ranks > 0) {
    out += ",\"donor_ranks\":" + std::to_string(p.donor_ranks);
  }
  append_string(out, "cache", p.cache_hit ? "hit" : "miss");
  out += ",\"snapshot\":" + std::to_string(p.snapshot_version);
  out += '}';
  return out;
}

std::string batch_json(std::span<const Prediction> results) {
  std::string out = "{\"ok\":true,\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) out += ',';
    out += ref::prediction_json(results[i]);  // not serve:: by ADL
  }
  out += "]}";
  return out;
}

std::string error_json(const std::string& error, int code) {
  return "{\"ok\":false,\"error\":\"" + escape(error) +
         "\",\"code\":" + std::to_string(code) + "}";
}

std::optional<Prediction> parse_prediction(const std::string& json) {
  const auto response = Object::parse(json);
  if (!response.has_value()) return std::nullopt;
  return prediction_from(*response);
}

std::optional<std::vector<Prediction>> parse_batch_response(
    const std::string& json) {
  const auto response = Object::parse(json);
  if (!response.has_value()) return std::nullopt;
  const auto elements = response->objects("results");
  if (!elements.has_value()) return std::nullopt;
  std::vector<Prediction> out;
  out.reserve(elements->size());
  for (const Object& element : *elements) {
    auto p = prediction_from(element);
    if (!p.has_value()) return std::nullopt;
    out.push_back(std::move(*p));
  }
  return out;
}


// --- serve/framing.cpp ---

std::string encode_frame(const std::string& payload) {
  return std::to_string(payload.size()) + "\n" + payload;
}

}  // namespace ref

// ref::Object keeps its fields private, as it was written.  An explicit
// instantiation may name a private member, so one hands out the pointer to
// it through a friend, and the differential reads the fields without
// editing the reference.
struct RefFieldsTag {};
constexpr auto private_member(RefFieldsTag);
template <typename Tag, auto kMember>
struct PrivateMember {
  friend constexpr auto private_member(Tag) { return kMember; }
};
template struct PrivateMember<RefFieldsTag, &ref::Object::fields_>;

/// Every field of an Object: (raw key, raw value) in text order.
using FieldList = std::vector<std::pair<std::string_view, std::string_view>>;

FieldList ref_fields(const ref::Object& object) {
  FieldList out;
  for (const auto& field : object.*private_member(RefFieldsTag{})) {
    out.emplace_back(field.key, field.value);
  }
  return out;
}

/// The trace-id cut the decoders apply, stated apart from serve's: at most
/// kMaxTraceIdBytes, backed over at most three UTF-8 continuation bytes so
/// that no character is split.
std::string cut_trace_id(std::string id) {
  if (id.size() <= serve::kMaxTraceIdBytes) return id;
  std::size_t cut = serve::kMaxTraceIdBytes;
  for (int k = 0; k < 3 && cut > 0 &&
                  (static_cast<unsigned char>(id[cut]) & 0xC0) == 0x80;
       ++k) {
    --cut;
  }
  return id.substr(0, cut);
}

/// "a" and twenty two-byte characters: 41 bytes, whose byte cut at 40
/// splits the last character.
std::string accented_trace_id() {
  std::string id = "a";
  for (int i = 0; i < 20; ++i) id += "\xc3\xa9";
  return id;
}

// --- Random inputs ----------------------------------------------------------

/// Deterministic xorshift so every run checks the same inputs.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::size_t below(std::size_t n) { return next() % n; }
  bool one_in(std::size_t n) { return below(n) == 0; }
};

/// Bytes a JSON string must escape, structural characters, ASCII, UTF-8
/// sequences and stray high bytes.
const std::vector<std::string>& string_pieces() {
  static const std::vector<std::string> pieces = {
      "\"", "\\", "\n", "\t", "\r", "\b", "\f", std::string(1, '\0'),
      "\x01", "\x1f", "\x7f", "a", "Z", "bt", "S", "9", " ", "/", "{", "}",
      "[", "]", ",", ":", "\\u0041", "ranks", "\xc3\xa9", "\xe2\x82\xac",
      "\xf0\x9d\x84\x9e", "\xff", "\x80"};
  return pieces;
}

std::string random_string(Rng& rng, std::size_t max_pieces) {
  std::string s;
  const std::size_t n = rng.below(max_pieces + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s += string_pieces()[rng.below(string_pieces().size())];
  }
  return s;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double random_double(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return rng.one_in(2) ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
    case 2: return from_bits(rng.next() >> 12);  // subnormal or zero
    case 3: return rng.one_in(2) ? 0.0 : -0.0;
    case 4: return static_cast<double>(rng.below(2000)) - 1000.0;
    case 5: return 0.26123873079507093 * static_cast<double>(rng.below(97));
    default: return from_bits(rng.next());  // any bit pattern
  }
}

template <typename T>
T random_integer(Rng& rng) {
  if (rng.one_in(2)) return static_cast<T>(rng.next());
  return static_cast<T>(static_cast<std::int64_t>(rng.below(200)) - 50);
}

serve::QueryKey random_query(Rng& rng) {
  serve::QueryKey q;
  q.application = random_string(rng, 4);
  q.config = random_string(rng, 2);
  q.ranks = random_integer<int>(rng);
  q.chain_length = random_integer<std::size_t>(rng);
  return q;
}

serve::Prediction random_prediction(Rng& rng) {
  serve::Prediction p;
  p.ok = rng.one_in(2);
  if (!p.ok || rng.one_in(8)) p.error = random_string(rng, 6);
  p.key = random_query(rng);
  p.coupling_s = random_double(rng);
  p.summation_s = random_double(rng);
  p.actual_s = random_double(rng);
  p.coupling_error = random_double(rng);
  p.summation_error = random_double(rng);
  const auto maybe = [&rng] {
    return rng.one_in(3) ? std::string() : random_string(rng, 4);
  };
  p.alpha_source = maybe();
  p.inputs_source = maybe();
  p.source = maybe();
  p.model_form = maybe();
  p.donor_ranks = random_integer<int>(rng);
  p.cache_hit = rng.one_in(2);
  p.snapshot_version = random_integer<std::uint64_t>(rng);
  return p;
}

std::string random_trace_id(Rng& rng) {
  return rng.one_in(3) ? std::string() : random_string(rng, 5);
}

// --- Encoders ---------------------------------------------------------------

TEST(WireCodecEncoders, ByteIdenticalToTheReferenceOverRandomInputs) {
  Rng rng{0x9e3779b97f4a7c15ull};
  const std::string prefix = "kept";
  for (int i = 0; i < 100000; ++i) {
    const serve::Prediction p = random_prediction(rng);
    const std::string want = ref::prediction_json(p);
    ASSERT_EQ(serve::prediction_json(p), want);
    std::string out = prefix;
    serve::append_prediction_json(out, p);
    ASSERT_EQ(out, prefix + want);

    const serve::QueryKey q = random_query(rng);
    const std::string id = random_trace_id(rng);
    const std::string request = ref::predict_request(q, id);
    ASSERT_EQ(serve::predict_request(q, id), request);
    out = prefix;
    serve::append_predict_request(out, q, id);
    ASSERT_EQ(out, prefix + request);

    const std::string text = random_string(rng, 6);
    const int code = random_integer<int>(rng);
    ASSERT_EQ(serve::error_json(text, code), ref::error_json(text, code));
    ASSERT_EQ(support::json::escape(text), ref::escape(text));
    ASSERT_EQ(serve::ping_request(id), ref::ping_request(id));
    ASSERT_EQ(serve::stats_request(id), ref::stats_request(id));
    ASSERT_EQ(serve::metrics_request(id), ref::metrics_request(id));
    ASSERT_EQ(serve::slowlog_request(id), ref::slowlog_request(id));

    // The server's path: a payload encoded after other frames, its trace
    // id spliced in and its length prefix inserted in place.
    const std::string payload =
        rng.one_in(4) ? text : (rng.one_in(2) ? want : request);
    out = prefix;
    out += payload;
    serve::splice_trace_id(out, prefix.size(), id);
    serve::prefix_frame(out, prefix.size());
    ASSERT_EQ(out, prefix + ref::encode_frame(ref::attach_trace_id(payload, id)));
    ASSERT_EQ(serve::attach_trace_id(payload, id),
              ref::attach_trace_id(payload, id));
    ASSERT_EQ(serve::encode_frame(payload), ref::encode_frame(payload));

    if (i % 8 == 0) {
      std::vector<serve::Prediction> results(rng.below(4));
      for (serve::Prediction& r : results) r = random_prediction(rng);
      ASSERT_EQ(serve::batch_json(results), ref::batch_json(results));
      std::vector<serve::QueryKey> queries(rng.below(4));
      for (serve::QueryKey& k : queries) k = random_query(rng);
      ASSERT_EQ(serve::batch_request(queries, id),
                ref::batch_request(queries, id));
    }
  }
}

TEST(WireCodecEncoders, WidestPredictionFitsTheComputedBound) {
  // The widest answer: an error with every integer at its widest decimal,
  // five 24-character doubles and all seven strings present, 410 bytes
  // beside the strings' bytes, each of them a control byte that takes six.
  serve::Prediction p;
  p.ok = false;
  p.key.ranks = std::numeric_limits<int>::min();
  p.key.chain_length = std::numeric_limits<std::size_t>::max();
  p.donor_ranks = std::numeric_limits<int>::max();
  p.snapshot_version = std::numeric_limits<std::uint64_t>::max();
  p.coupling_s = p.summation_s = p.actual_s = p.coupling_error =
      p.summation_error = std::numeric_limits<double>::lowest();
  for (const std::size_t control_bytes : {1, 7}) {
    const std::string s(control_bytes, '\x01');
    p.error = p.key.application = p.key.config = p.alpha_source =
        p.inputs_source = p.source = p.model_form = s;
    const std::string want = ref::prediction_json(p);
    ASSERT_EQ(want.size(), 410 + 7 * 6 * control_bytes);
    // A fresh string holds exactly the encoder's bound, so under ASan a
    // bound short of the widest answer overflows its allocation.
    EXPECT_EQ(serve::prediction_json(p), want);
    std::string out = "kept";
    serve::append_prediction_json(out, p);
    EXPECT_EQ(out, "kept" + want);
  }
}

// --- Decoders ---------------------------------------------------------------

const char* const kIntegerKeys[] = {"ranks", "chain", "donor_ranks",
                                    "snapshot"};

/// True when the first occurrence of an integer key in `object` holds a
/// number that is not integral: the reference truncated it, the integer
/// rule refuses it.
bool has_fractional_integer(const ref::Object& object) {
  for (const char* key : kIntegerKeys) {
    const auto v = object.number(key);
    if (v && std::trunc(*v) != *v) return true;
  }
  return false;
}

/// has_fractional_integer over the object in `text` and the elements of
/// its `array` field.
bool fraction_explains_refusal(const std::string& text, const char* array) {
  const auto object = ref::Object::parse(text);
  if (!object) return false;
  if (has_fractional_integer(*object)) return true;
  if (const auto elements = object->objects(array)) {
    for (const ref::Object& e : *elements) {
      if (has_fractional_integer(e)) return true;
    }
  }
  return false;
}

void expect_same_prediction(const serve::Prediction& got,
                            const serve::Prediction& want,
                            const std::string& text) {
  EXPECT_EQ(got.ok, want.ok) << text;
  EXPECT_EQ(got.error, want.error) << text;
  EXPECT_EQ(got.key.application, want.key.application) << text;
  EXPECT_EQ(got.key.config, want.key.config) << text;
  EXPECT_EQ(got.key.ranks, want.key.ranks) << text;
  EXPECT_EQ(got.key.chain_length, want.key.chain_length) << text;
  EXPECT_EQ(bits_of(got.coupling_s), bits_of(want.coupling_s)) << text;
  EXPECT_EQ(bits_of(got.summation_s), bits_of(want.summation_s)) << text;
  EXPECT_EQ(bits_of(got.actual_s), bits_of(want.actual_s)) << text;
  EXPECT_EQ(bits_of(got.coupling_error), bits_of(want.coupling_error))
      << text;
  EXPECT_EQ(bits_of(got.summation_error), bits_of(want.summation_error))
      << text;
  EXPECT_EQ(got.alpha_source, want.alpha_source) << text;
  EXPECT_EQ(got.inputs_source, want.inputs_source) << text;
  EXPECT_EQ(got.source, want.source) << text;
  EXPECT_EQ(got.model_form, want.model_form) << text;
  EXPECT_EQ(got.donor_ranks, want.donor_ranks) << text;
  EXPECT_EQ(got.cache_hit, want.cache_hit) << text;
  EXPECT_EQ(got.snapshot_version, want.snapshot_version) << text;
}

/// The reference request's trace id with the intended cut: the decoded id
/// in full, from the reference object, cut by cut_trace_id.
std::string want_trace_id(const std::string& text) {
  const auto object = ref::Object::parse(text);
  const auto id = object ? object->string("trace_id") : std::nullopt;
  return id ? cut_trace_id(*id) : std::string();
}

void expect_same_request(const serve::Request& got, const serve::Request& want,
                         const std::string& text) {
  EXPECT_EQ(got.op, want.op) << text;
  EXPECT_EQ(got.trace_id, want.trace_id) << text;
  EXPECT_EQ(got.queries.size(), want.queries.size()) << text;
  for (std::size_t i = 0; i < got.queries.size() && i < want.queries.size();
       ++i) {
    EXPECT_EQ(got.queries[i].application, want.queries[i].application);
    EXPECT_EQ(got.queries[i].config, want.queries[i].config);
    EXPECT_EQ(got.queries[i].ranks, want.queries[i].ranks);
    EXPECT_EQ(got.queries[i].chain_length, want.queries[i].chain_length);
  }
}

/// support::json::Object reads the same fields as the reference Object:
/// the same accept/refuse, and (key, raw value) in the same order.
void expect_same_fields(const std::string& text) {
  const auto want = ref::Object::parse(text);
  const auto got = support::json::Object::parse(text);
  ASSERT_EQ(got.has_value(), want.has_value()) << text;
  if (!got.has_value()) return;
  FieldList fields;
  for (const support::json::Object::Field& f : got->fields()) {
    fields.emplace_back(f.key, f.value);
  }
  EXPECT_EQ(fields, ref_fields(*want)) << text;
}

/// Same accept/refuse and fields from all three decoders, or a refusal the
/// integer rule explains.  `reused` is decoded into by parse_request_into
/// and must then hold what a fresh parse_request returns.  Returns how many
/// decoders accepted the text.
int expect_same_decoding(const std::string& text, serve::Request* reused) {
  int accepted = 0;
  expect_same_fields(text);
  {
    const auto want = ref::parse_prediction(text);
    const auto got = serve::parse_prediction(text);
    if (got.has_value() != want.has_value()) {
      EXPECT_TRUE(want.has_value() &&
                  fraction_explains_refusal(text, "results"))
          << "parse_prediction accept/refuse differs: " << text;
    } else if (got.has_value()) {
      expect_same_prediction(*got, *want, text);
      ++accepted;
    }
  }
  {
    const auto want = ref::parse_batch_response(text);
    const auto got = serve::parse_batch_response(text);
    if (got.has_value() != want.has_value()) {
      EXPECT_TRUE(want.has_value() &&
                  fraction_explains_refusal(text, "results"))
          << "parse_batch_response accept/refuse differs: " << text;
    } else if (got.has_value()) {
      EXPECT_EQ(got->size(), want->size()) << text;
      for (std::size_t i = 0; i < got->size() && i < want->size(); ++i) {
        expect_same_prediction((*got)[i], (*want)[i], text);
      }
      ++accepted;
    }
  }
  {
    auto want = ref::parse_request(text);
    const auto got = serve::parse_request(text);
    EXPECT_EQ(serve::parse_request_into(text, reused), got.has_value())
        << text;
    if (got.has_value()) expect_same_request(*reused, *got, text);
    if (got.has_value() != want.has_value()) {
      EXPECT_TRUE(want.has_value() &&
                  fraction_explains_refusal(text, "queries"))
          << "parse_request accept/refuse differs: " << text;
    } else if (got.has_value()) {
      want->trace_id = want_trace_id(text);
      expect_same_request(*got, *want, text);
      ++accepted;
    }
  }
  return accepted;
}

/// A random prediction whose integers a double holds exactly.
serve::Prediction decodable_prediction(Rng& rng) {
  serve::Prediction p = random_prediction(rng);
  p.key.chain_length = rng.below(1u << 20);
  p.snapshot_version = rng.below(1u << 20);
  return p;
}

/// `text` re-spaced the way json.dumps writes it: a space after every ','
/// and ':' outside strings.
std::string respaced(const std::string& text) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    out += text[i];
    if (in_string) {
      if (text[i] == '\\' && i + 1 < text.size()) {
        out += text[++i];
      } else if (text[i] == '"') {
        in_string = false;
      }
    } else if (text[i] == '"') {
      in_string = true;
    } else if (text[i] == ',' || text[i] == ':') {
      out += ' ';
    }
  }
  return out;
}

/// The object in `text` with its top-level fields i and j (modulo the
/// field count) swapped; `text` itself when it has fewer than two fields.
std::string swapped_fields(const std::string& text, std::size_t i,
                           std::size_t j) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  const bool whole = support::json::for_each_field(
      text, [&fields](std::string_view key, std::string_view value) {
        fields.emplace_back(key, value);
        return true;
      });
  if (!whole || fields.size() < 2) return text;
  i %= fields.size();
  j %= fields.size();
  if (i == j) j = (i + 1) % fields.size();
  std::swap(fields[i], fields[j]);
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += value;
  }
  out += '}';
  return out;
}

/// Valid frames of every kind the decoders read, with integers every
/// decoder admits.  Besides the encoders' own layout, which the decoders
/// read first, the seeds hold frames that decode only through the field
/// scan: json.dumps spacing, swapped fields and escaped quotes.
std::vector<std::string> seed_frames(Rng& rng) {
  std::vector<std::string> seeds = {
      serve::ping_request(), serve::stats_request("t-1"),
      "{\"op\": \"predict\", \"app\": \"BT\", \"config\": \"S\", "
      "\"ranks\": 4, \"chain\": 2}",
      serve::error_json("malformed request", 400),
      serve::predict_request({"BT", "S", 4, 2}, accented_trace_id())};
  for (int i = 0; i < 64; ++i) {
    serve::QueryKey q = random_query(rng);
    q.ranks = 1 + static_cast<int>(rng.below(64));
    q.chain_length = 1 + rng.below(4);
    seeds.push_back(serve::predict_request(q, random_trace_id(rng)));
    std::vector<serve::QueryKey> batch(1 + rng.below(3), q);
    seeds.push_back(serve::batch_request(batch, random_trace_id(rng)));
    seeds.push_back(serve::attach_trace_id(
        serve::prediction_json(decodable_prediction(rng)),
        random_trace_id(rng)));
    std::vector<serve::Prediction> results(1 + rng.below(3));
    for (serve::Prediction& r : results) r = decodable_prediction(rng);
    seeds.push_back(serve::batch_json(results));
  }
  const std::size_t canonical = seeds.size();
  for (std::size_t i = 0; i < canonical; ++i) {
    seeds.push_back(respaced(seeds[i]));
    seeds.push_back(swapped_fields(seeds[i], rng.below(8), rng.below(8)));
  }
  serve::Prediction quoted = decodable_prediction(rng);
  quoted.ok = true;
  quoted.source = "say \"exact\"";
  seeds.push_back(serve::prediction_json(quoted));
  seeds.push_back(serve::predict_request({"B\"T", "S", 4, 2}, "t\"1"));
  return seeds;
}

/// Text an insertion draws from: structure, number syntax and whitespace.
const std::string kInsertBytes = "{}[]\",:\\ \t\n0123456789.-+eEu\x01\xc3";
/// Values swapped in for a number, integral and not.
const char* const kNumbers[] = {"4.9", "-1", "0", "1", "2147483647",
                                "2147483648", "9007199254740992", "1e300",
                                "1.5", "4.0", "1e3", "-0", "1e-320", "x"};

void mutate(Rng& rng, std::string& s) {
  const auto at = [&rng, &s] { return rng.below(s.size() + 1); };
  switch (rng.below(7)) {
    case 0:  // bit flip
      if (!s.empty()) {
        const std::size_t i = rng.below(s.size());
        s[i] = static_cast<char>(s[i] ^ (1 << rng.below(8)));
      }
      break;
    case 1: {  // deletion
      const std::size_t i = at();
      s.erase(i, 1 + rng.below(8));
      break;
    }
    case 2: {  // insertion
      std::string bytes;
      for (std::size_t n = 1 + rng.below(4); n > 0; --n) {
        bytes += kInsertBytes[rng.below(kInsertBytes.size())];
      }
      s.insert(at(), bytes);
      break;
    }
    case 3: {  // duplicated span
      const std::size_t i = at();
      const std::string span = s.substr(i, 1 + rng.below(24));
      s.insert(at(), span);
      break;
    }
    case 4: {  // duplicated key: a field copied in front of the first one
      const std::size_t comma = s.find(",\"", rng.below(s.size() + 1));
      if (comma == std::string::npos || s.empty() || s[0] != '{') break;
      std::size_t end = comma + 1;
      while (end < s.size() && s[end] != ',' && s[end] != '}') ++end;
      s.insert(1, s.substr(comma + 1, end - comma - 1) + ",");
      break;
    }
    case 5: {  // whitespace
      static const char kSpace[] = {' ', '\t', '\n', '\r'};
      s.insert(at(), std::string(1 + rng.below(3), kSpace[rng.below(4)]));
      break;
    }
    default: {  // a number replaced
      std::size_t i = at();
      while (i < s.size() && !(s[i] >= '0' && s[i] <= '9')) ++i;
      std::size_t end = i;
      while (end < s.size() &&
             ((s[end] >= '0' && s[end] <= '9') || s[end] == '.' ||
              s[end] == 'e' || s[end] == '-' || s[end] == '+')) {
        ++end;
      }
      s.replace(i, end - i, kNumbers[rng.below(std::size(kNumbers))]);
      break;
    }
  }
}

TEST(WireCodecDecoders, SameAsTheReferenceOnValidFrames) {
  Rng rng{0x2545f4914f6cdd1dull};
  serve::Request reused;
  for (const std::string& seed : seed_frames(rng)) {
    EXPECT_GE(expect_same_decoding(seed, &reused), 1) << seed;
  }
}

TEST(WireCodecDecoders, SameAsTheReferenceOverRandomMutations) {
  Rng rng{0xda942042e4dd58b5ull};
  const std::vector<std::string> seeds = seed_frames(rng);
  // One Request decoded into across the whole sweep, as a server shard
  // decodes each pipelined frame into the one it kept.
  serve::Request reused;
  std::size_t accepted = 0;
  constexpr std::size_t kMutations = 300000;
  for (std::size_t i = 0; i < kMutations; ++i) {
    std::string text = seeds[rng.below(seeds.size())];
    for (std::size_t n = 1 + rng.below(3); n > 0; --n) mutate(rng, text);
    accepted += static_cast<std::size_t>(expect_same_decoding(text, &reused));
    if (::testing::Test::HasFailure()) FAIL() << "stopped at mutation " << i;
  }
  // The sweep must reach the field decoders, not only the scanner's
  // refusals.
  EXPECT_GT(accepted, kMutations / 4);
}

/// A served exact answer, as tests/data/served_frames.txt pins its kind.
const std::string kExactAnswer =
    R"({"ok":true,"app":"BT","config":"S","ranks":4,"chain":2,)"
    R"("coupling_s":0.26123873079507093,"summation_s":0.27503180720945508,)"
    R"("actual_s":0.27221431246075539,"coupling_err":0.040319634799756504,)"
    R"("summation_err":0.010350281450046394,"alpha":"exact",)"
    R"("inputs":"measured","source":"exact","cache":"hit","snapshot":1})";

/// kExactAnswer with the first `from` replaced by `to`.
std::string exact_answer_with(const std::string& from, const std::string& to) {
  std::string text = kExactAnswer;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Each way a text leaves the encoders' layout, where the decoders switch
/// to the field scan: the answer must be the reference decoder's.
TEST(WireCodecDecoders, LayoutDeparturesDecodeAsTheReference) {
  serve::Request reused;
  const auto same = [&reused](const std::string& text) {
    SCOPED_TRACE(text);
    expect_same_decoding(text, &reused);
    return serve::parse_prediction(text);
  };

  // The layout itself, and its echoed trace id.
  auto p = same(kExactAnswer);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.ranks, 4);
  EXPECT_TRUE(p->cache_hit);
  p = same(exact_answer_with("}", ",\"trace_id\":\"c0-17\"}"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->snapshot_version, 1u);

  // A duplicate key, next to the first or after the last field: the first
  // one still wins.
  p = same(exact_answer_with("\"app\":\"BT\"", "\"app\":\"BT\",\"app\":\"SP\""));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.application, "BT");
  p = same(exact_answer_with("\"snapshot\":1}",
                             "\"snapshot\":1,\"ranks\":5}"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.ranks, 4);

  // "ok" is true only when its value is exactly `true`.
  p = same(exact_answer_with("\"ok\":true", "\"ok\":trueX"));
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->ok);
  EXPECT_EQ(p->source, "exact");

  // A fraction is refused; an exponent spelling of an integer is read.
  EXPECT_FALSE(same(exact_answer_with("\"ranks\":4", "\"ranks\":4.9")));
  p = same(exact_answer_with("\"ranks\":4", "\"ranks\":1e3"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.ranks, 1000);

  // A double parse_double refuses reads as absent; -0 keeps its sign.
  for (const char* refused : {"nan", "1e400", "inf"}) {
    p = same(exact_answer_with("0.26123873079507093", refused));
    ASSERT_TRUE(p.has_value()) << refused;
    EXPECT_TRUE(std::isnan(p->coupling_s)) << refused;
    EXPECT_EQ(p->summation_s, 0.27503180720945508) << refused;
  }
  p = same(exact_answer_with("0.26123873079507093", "-0"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(bits_of(p->coupling_s), bits_of(-0.0));

  // Bytes the encoder escapes: a raw control byte, an escaped quote.
  p = same(exact_answer_with("\"BT\"", "\"B\x01T\""));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.application, "B\x01T");
  p = same(exact_answer_with("\"BT\"", "\"B\\\"T\""));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.application, "B\"T");

  // Whitespace, and a field out of order.
  p = same(exact_answer_with(",\"chain\":2", ", \"chain\" : 2"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.chain_length, 2u);
  p = same(exact_answer_with("\"app\":\"BT\",\"config\":\"S\"",
                             "\"config\":\"S\",\"app\":\"BT\""));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.application, "BT");

  // A cut text is refused whichever path reads it.
  EXPECT_FALSE(same(kExactAnswer.substr(0, kExactAnswer.size() - 1)));
}

TEST(WireCodecDecoders, PredictLayoutDeparturesDecodeAsTheReference) {
  serve::Request reused;
  const auto same = [&reused](const std::string& text) {
    SCOPED_TRACE(text);
    expect_same_decoding(text, &reused);
    return serve::parse_request(text);
  };
  // A trace id longer than kMaxTraceIdBytes is cut on the layout path too.
  const std::string long_id(serve::kMaxTraceIdBytes + 9, 'x');
  auto r = same(serve::predict_request({"bt", "S", 4, 2}, long_id));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->trace_id, std::string(serve::kMaxTraceIdBytes, 'x'));
  r = same(serve::predict_request({"bt", "S", 4, 2}, accented_trace_id()));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->trace_id, cut_trace_id(accented_trace_id()));

  const std::string canonical =
      R"({"op":"predict","app":"bt","config":"S","ranks":4,"chain":2})";
  r = same(canonical);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->trace_id.empty());
  ASSERT_EQ(r->queries.size(), 1u);
  EXPECT_EQ(r->queries[0], (serve::QueryKey{"bt", "S", 4, 2}));

  const auto with_ranks = [](const std::string& ranks) {
    return R"({"op":"predict","app":"bt","config":"S","ranks":)" + ranks +
           R"(,"chain":2})";
  };
  EXPECT_FALSE(same(with_ranks("4.9")));
  EXPECT_FALSE(same(with_ranks("0")));
  r = same(with_ranks("1e3"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->queries[0].ranks, 1000);
  // A duplicate after the layout's last field: the first one wins.
  r = same(with_ranks("4,\"chain\":2,\"ranks\":9"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->queries[0].ranks, 4);
  // json.dumps spacing, reordered keys, escapes and a raw control byte.
  for (const std::string& text :
       {respaced(canonical), swapped_fields(canonical, 0, 1),
        std::string(R"({"op":"predict","app":"b\u0074","config":"S",)"
                    R"("ranks":4,"chain":2})"),
        std::string("{\"op\":\"predict\",\"app\":\"b\x01t\",\"config\":\"S\","
                    "\"ranks\":4,\"chain\":2}")}) {
    r = same(text);
    ASSERT_TRUE(r.has_value()) << text;
    EXPECT_EQ(r->queries[0].ranks, 4) << text;
  }
}

// --- The one integer rule on every surface ----------------------------------

struct Boundary {
  const char* text;
  bool fits_int;       // int: ranks, donor_ranks
  bool fits_unsigned;  // std::size_t / std::uint64_t: chain, snapshot
  bool fits_request;   // [1, INT_MAX]: a request's ranks and chain
};

constexpr Boundary kBoundaries[] = {
    {"0", true, true, false},
    {"1", true, true, true},
    {"-1", true, false, false},
    {"4.9", false, false, false},
    {"2147483647", true, true, true},
    {"2147483648", false, true, false},
    {"9007199254740992", false, true, false},
    {"1e300", false, false, false},
};

TEST(WireIntegerRule, RequestRanksAndChainAreIntegersInOneToIntMax) {
  for (const Boundary& b : kBoundaries) {
    for (const bool ranks : {true, false}) {
      const std::string field = ranks ? "ranks" : "chain";
      SCOPED_TRACE(field + " = " + b.text);
      const std::string value = b.text;
      const auto predict = serve::parse_request(
          "{\"op\":\"predict\",\"app\":\"bt\",\"config\":\"S\",\"ranks\":" +
          (ranks ? value : "4") + ",\"chain\":" + (ranks ? "2" : value) + "}");
      ASSERT_EQ(predict.has_value(), b.fits_request);
      const auto batch = serve::parse_request(
          "{\"op\":\"batch\",\"queries\":[{\"app\":\"bt\",\"config\":\"S\","
          "\"ranks\":4,\"chain\":2},{\"app\":\"bt\",\"config\":\"S\","
          "\"ranks\":" +
          (ranks ? value : "4") + ",\"chain\":" + (ranks ? "2" : value) +
          "}]}");
      ASSERT_EQ(batch.has_value(), b.fits_request);
      if (!predict.has_value()) continue;
      const auto& q = predict->queries.at(0);
      EXPECT_EQ(std::to_string(ranks ? q.ranks : static_cast<long long>(
                                                      q.chain_length)),
                value);
    }
  }
}

TEST(WireIntegerRule, PredictionIntegersFitTheirFieldsWithoutTruncation) {
  for (const Boundary& b : kBoundaries) {
    for (const char* field : kIntegerKeys) {
      SCOPED_TRACE(std::string(field) + " = " + b.text);
      const bool is_int = std::string_view(field) == "ranks" ||
                          std::string_view(field) == "donor_ranks";
      const std::string text = "{\"ok\":true,\"app\":\"BT\",\"" +
                                std::string(field) + "\":" + b.text + "}";
      const auto p = serve::parse_prediction(text);
      ASSERT_EQ(p.has_value(), is_int ? b.fits_int : b.fits_unsigned);
      const auto batch =
          serve::parse_batch_response("{\"ok\":true,\"results\":[" + text + "]}");
      ASSERT_EQ(batch.has_value(), p.has_value());
      if (!p.has_value()) continue;
      std::string got;
      if (std::string_view(field) == "ranks") got = std::to_string(p->key.ranks);
      if (std::string_view(field) == "chain") {
        got = std::to_string(p->key.chain_length);
      }
      if (std::string_view(field) == "donor_ranks") {
        got = std::to_string(p->donor_ranks);
      }
      if (std::string_view(field) == "snapshot") {
        got = std::to_string(p->snapshot_version);
      }
      EXPECT_EQ(got, b.text);
    }
  }
}

TEST(WireIntegerRule, MetricsRecordCountersAreUnsignedIntegers) {
  for (const Boundary& b : kBoundaries) {
    SCOPED_TRACE(b.text);
    const auto m = serve::ServeMetrics::from_jsonl(
        std::string("{\"requests\":") + b.text + ",\"errors\":0}");
    ASSERT_EQ(m.has_value(), b.fits_unsigned);
    if (m.has_value()) {
      EXPECT_EQ(std::to_string(m->requests), b.text);
    }
  }
}

TEST(WireIntegerRule, ParseIntegerBoundsAndSpellings) {
  using support::json::IntegerRead;
  using support::json::parse_integer;
  int v = 0;
  EXPECT_EQ(parse_integer<int>("4.0", &v), IntegerRead::kRead);
  EXPECT_EQ(v, 4);
  EXPECT_EQ(parse_integer<int>("1e3", &v), IntegerRead::kRead);
  EXPECT_EQ(v, 1000);
  EXPECT_EQ(parse_integer<int>("-0", &v), IntegerRead::kRead);
  EXPECT_EQ(v, 0);
  EXPECT_EQ(parse_integer<int>("-2147483648", &v), IntegerRead::kRead);
  EXPECT_EQ(v, std::numeric_limits<int>::min());
  EXPECT_EQ(parse_integer<int>("-2147483649", &v), IntegerRead::kRefused);
  EXPECT_EQ(parse_integer<int>("1e-320", &v), IntegerRead::kRefused);
  EXPECT_EQ(parse_integer<int>("\"4\"", &v), IntegerRead::kNotNumber);
  EXPECT_EQ(parse_integer<int>("true", &v), IntegerRead::kNotNumber);
  EXPECT_EQ(parse_integer<int>("5", &v, 1, 4), IntegerRead::kRefused);
  EXPECT_EQ(v, std::numeric_limits<int>::min());  // untouched when refused
  std::uint64_t u = 0;
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709549568", &u),
            IntegerRead::kRead);
  EXPECT_EQ(u, 18446744073709549568u);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551616", &u),
            IntegerRead::kRefused);
  // The digit path's edges: up to 15 plain digits are read directly, and
  // every other spelling through the double, which reads the same value
  // there; 16 digits and more keep the double's rounding.
  EXPECT_EQ(parse_integer<std::uint64_t>("999999999999999", &u),
            IntegerRead::kRead);
  EXPECT_EQ(u, 999999999999999u);
  EXPECT_EQ(parse_integer<int>("999999999999999", &v), IntegerRead::kRefused);
  EXPECT_EQ(parse_integer<std::uint64_t>("1000000000000000", &u),
            IntegerRead::kRead);
  EXPECT_EQ(u, 1000000000000000u);
  EXPECT_EQ(parse_integer<std::uint64_t>("9007199254740993", &u),
            IntegerRead::kRead);
  EXPECT_EQ(u, 9007199254740992u);  // 2^53 + 1 reads as the double 2^53
  for (const char* four : {"0004", "+4", " 4"}) {
    v = 0;
    EXPECT_EQ(parse_integer<int>(four, &v), IntegerRead::kRead) << four;
    EXPECT_EQ(v, 4) << four;
  }
}

}  // namespace
}  // namespace kcoup

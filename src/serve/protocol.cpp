#include "serve/protocol.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::serve {

namespace {

using namespace std::string_view_literals;
using support::json::for_each_field;
using support::json::for_each_object;
using support::json::IntegerRead;
using support::json::kMaxEscapedBytes;
using support::json::parse_integer;
using support::json::string_value;
using support::kFormatDoubleBytes;

// --- Field lists ------------------------------------------------------------
//
// Each list is in its encoder's order.  The decoders dispatch on it and the
// encoders take their keys and size bounds from it.

namespace request_key {
enum : std::size_t {
  kOp, kApp, kConfig, kRanks, kChain, kTraceId, kQueries, kCount
};
constexpr std::array<std::string_view, kCount> kNames = {
    "op", "app", "config", "ranks", "chain", "trace_id", "queries"};
}  // namespace request_key

/// The one field parse_batch_response reads.
constexpr std::array<std::string_view, 1> kResultsName = {"results"};

/// The request ops, in RequestOp's order.
constexpr std::array<std::string_view, 6> kOpNames = {
    "ping", "stats", "metrics", "slowlog", "predict", "batch"};
static_assert(static_cast<std::size_t>(RequestOp::kBatch) + 1 ==
              kOpNames.size());

namespace prediction_key {
enum : std::size_t {
  kOk, kError, kApp, kConfig, kRanks, kChain, kCouplingS, kSummationS,
  kActualS, kCouplingErr, kSummationErr, kAlpha, kInputs, kSource,
  kModelForm, kDonorRanks, kCache, kSnapshot, kCount
};
constexpr std::array<std::string_view, kCount> kNames = {
    "ok",          "error",         "app",         "config",
    "ranks",       "chain",         "coupling_s",  "summation_s",
    "actual_s",    "coupling_err",  "summation_err", "alpha",
    "inputs",      "source",        "model_form",  "donor_ranks",
    "cache",       "snapshot"};
}  // namespace prediction_key

// --- Encoding ---------------------------------------------------------------

/// Longest decimal of an integer type, its sign included.
template <typename T>
constexpr std::size_t kIntegerBytes =
    std::numeric_limits<T>::digits10 + 1 + std::numeric_limits<T>::is_signed;
/// A string value's quotes; its bytes are counted apart, each at
/// kMaxEscapedBytes.
constexpr std::size_t kQuotes = 2;

/// `,"name":`, the separator and key in front of a value.
constexpr std::size_t key_bytes(std::string_view name) {
  return name.size() + 4;
}

/// Writes one payload at the end of a string: the constructor grows the
/// string once by `bound` bytes, the writes go through a cursor, and the
/// destructor trims the string to what was written.  Each encoder computes
/// its bound from its field list, the widest text of every value.
class Cursor {
 public:
  Cursor(std::string& out, std::size_t bound) : out_(out) {
    const std::size_t at = out.size();
    out.resize(at + bound);
    p_ = out.data() + at;
  }
  ~Cursor() { out_.resize(static_cast<std::size_t>(p_ - out_.data())); }
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  void raw(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void quoted(std::string_view v) {
    *p_++ = '"';
    p_ = support::json::write_escaped(p_, v);
    *p_++ = '"';
  }
  void key(std::string_view name) {
    *p_++ = ',';
    *p_++ = '"';
    raw(name);
    *p_++ = '"';
    *p_++ = ':';
  }
  void string(std::string_view name, std::string_view v) {
    key(name);
    quoted(v);
  }
  template <typename T>
  void integer(std::string_view name, T v) {
    key(name);
    p_ = std::to_chars(p_, p_ + kIntegerBytes<T>, v).ptr;
  }
  void number(std::string_view name, double v) {
    if (!std::isfinite(v)) return;  // absent => NaN on the reader's side
    key(name);
    p_ = support::format_double(p_, v);
  }

 private:
  std::string& out_;
  char* p_;
};

/// Bound of the optional trace-context field.
std::size_t trace_field_bytes(std::string_view trace_id) {
  return key_bytes(request_key::kNames[request_key::kTraceId]) + kQuotes +
         kMaxEscapedBytes * trace_id.size();
}

/// The optional trace-context field, written in front of a closing brace.
void write_trace_field(Cursor& w, std::string_view trace_id) {
  if (!trace_id.empty()) {
    w.string(request_key::kNames[request_key::kTraceId], trace_id);
  }
}

/// Bound of `"app":"...","config":"...","ranks":N,"chain":N`.
std::size_t query_fields_bytes(const QueryKey& q) {
  using namespace request_key;
  constexpr std::size_t kFixed =
      key_bytes(kNames[kApp]) + kQuotes + key_bytes(kNames[kConfig]) +
      kQuotes + key_bytes(kNames[kRanks]) + kIntegerBytes<int> +
      key_bytes(kNames[kChain]) + kIntegerBytes<std::size_t>;
  return kFixed +
         kMaxEscapedBytes * (q.application.size() + q.config.size());
}

/// `"app":"...","config":"...","ranks":N,"chain":N`: a request's query
/// fields, the first without a separator.
void write_query_fields(Cursor& w, const QueryKey& q) {
  using namespace request_key;
  w.raw("\"app\":"sv);
  w.quoted(q.application);
  w.string(kNames[kConfig], q.config);
  w.integer(kNames[kRanks], q.ranks);
  w.integer(kNames[kChain], q.chain_length);
}

/// Bound of a prediction object but its strings' bytes: the widest text of
/// each field's value (a string's quotes; "false"; "miss") behind its key,
/// and the closing brace.  `{"ok":` is as long as `,"ok":`.
constexpr std::size_t kPredictionBytes = [] {
  using namespace prediction_key;
  constexpr std::array<std::size_t, kCount> kValueBytes = {
      5,                                // ok: false
      kQuotes,                          // error
      kQuotes,                          // app
      kQuotes,                          // config
      kIntegerBytes<int>,               // ranks
      kIntegerBytes<std::size_t>,       // chain
      kFormatDoubleBytes,               // coupling_s
      kFormatDoubleBytes,               // summation_s
      kFormatDoubleBytes,               // actual_s
      kFormatDoubleBytes,               // coupling_err
      kFormatDoubleBytes,               // summation_err
      kQuotes,                          // alpha
      kQuotes,                          // inputs
      kQuotes,                          // source
      kQuotes,                          // model_form
      kIntegerBytes<int>,               // donor_ranks
      kQuotes + 4,                      // cache: "miss"
      kIntegerBytes<std::uint64_t>};    // snapshot
  std::size_t bytes = 1;  // '}'
  for (std::size_t i = 0; i < kCount; ++i) {
    bytes += key_bytes(kNames[i]) + kValueBytes[i];
  }
  return bytes;
}();

// --- Decoding ---------------------------------------------------------------

/// The N bytes at `a` equal those at `b`, compared a word at a time: each
/// load has a constant width, so no memcmp call is made.
template <std::size_t N>
bool same_bytes(const char* a, const char* b) {
  if constexpr (N == 0) {
    return true;
  } else {
    constexpr std::size_t kWidth = N >= 8 ? 8 : N >= 4 ? 4 : N >= 2 ? 2 : 1;
    using Word = std::conditional_t<
        kWidth == 8, std::uint64_t,
        std::conditional_t<kWidth == 4, std::uint32_t,
                           std::conditional_t<kWidth == 2, std::uint16_t,
                                              std::uint8_t>>>;
    Word x = 0;
    Word y = 0;
    std::memcpy(&x, a, kWidth);
    std::memcpy(&y, b, kWidth);
    return x == y && same_bytes<N - kWidth>(a + kWidth, b + kWidth);
  }
}

/// Position of `key` in kNames, kNames.size() when it is none of them.  Each
/// compare is a length test against a constant, then same_bytes.
template <const auto& kNames, std::size_t... I>
std::size_t key_slot(std::string_view key, std::index_sequence<I...>) {
  std::size_t slot = sizeof...(I);
  (void)((key.size() == kNames[I].size() &&
          same_bytes<kNames[I].size()>(key.data(), kNames[I].data()) &&
          ((slot = I), true)) ||
         ...);
  return slot;
}

template <const auto& kNames>
std::size_t key_slot(std::string_view key) {
  return key_slot<kNames>(key, std::make_index_sequence<kNames.size()>());
}

/// *out = the decoded string, or empty when the value is no string.
void read_string(std::string_view raw, std::string* out) {
  if (!string_value(raw, out)) out->clear();
}

void read_number(std::string_view raw, double* out) {
  if (const auto v = support::parse_double(raw)) *out = *v;
}

/// False when the value is a number the integer rule refuses; anything that
/// is no number reads as absent.
template <typename T>
bool read_integer(std::string_view raw, T* out) {
  return parse_integer(raw, out) != IntegerRead::kRefused;
}

/// The raw value of each request key, from its first occurrence.
using RequestFields =
    std::array<std::optional<std::string_view>, request_key::kCount>;

/// False when `json` is not one object.
bool read_request_fields(std::string_view json, RequestFields* f) {
  return for_each_field(json, [f](std::string_view key,
                                  std::string_view value) {
    const std::size_t slot = key_slot<request_key::kNames>(key);
    if (slot != request_key::kCount && !(*f)[slot]) (*f)[slot] = value;
    return true;
  });
}

/// Decode a query's four fields into *q; false when one is absent or
/// malformed.
bool read_query(const RequestFields& f, QueryKey* q) {
  using namespace request_key;
  if (!f[kApp] || !f[kConfig] || !f[kRanks] || !f[kChain]) return false;
  constexpr int kMax = std::numeric_limits<int>::max();
  return string_value(*f[kApp], &q->application) &&
         string_value(*f[kConfig], &q->config) &&
         parse_integer(*f[kRanks], &q->ranks, 1, kMax) == IntegerRead::kRead &&
         parse_integer(*f[kChain], &q->chain_length, std::size_t{1},
                       std::size_t{kMax}) == IntegerRead::kRead;
}

/// Decode the prediction object in `json` into *p, a default Prediction,
/// each key from its first occurrence.  False when the text is not one
/// object or an integer field is refused.
bool read_prediction(std::string_view json, Prediction* p) {
  using namespace prediction_key;
  static_assert(kCount <= 32, "the seen-mask is 32 bits");
  std::uint32_t seen = 0;
  return for_each_field(json, [p, &seen](std::string_view key,
                                         std::string_view value) {
    const std::size_t slot = key_slot<kNames>(key);
    if (slot == kCount || ((seen >> slot) & 1u) != 0) return true;
    seen |= 1u << slot;
    switch (slot) {
      case kOk: p->ok = value == "true"sv; break;
      case kError: read_string(value, &p->error); break;
      case kApp: read_string(value, &p->key.application); break;
      case kConfig: read_string(value, &p->key.config); break;
      case kRanks: return read_integer(value, &p->key.ranks);
      case kChain: return read_integer(value, &p->key.chain_length);
      case kCouplingS: read_number(value, &p->coupling_s); break;
      case kSummationS: read_number(value, &p->summation_s); break;
      case kActualS: read_number(value, &p->actual_s); break;
      case kCouplingErr: read_number(value, &p->coupling_error); break;
      case kSummationErr: read_number(value, &p->summation_error); break;
      case kAlpha: read_string(value, &p->alpha_source); break;
      case kInputs: read_string(value, &p->inputs_source); break;
      case kSource: read_string(value, &p->source); break;
      case kModelForm: read_string(value, &p->model_form); break;
      case kDonorRanks: return read_integer(value, &p->donor_ranks);
      case kCache: {
        std::string cache;
        if (string_value(value, &cache)) p->cache_hit = cache == "hit"sv;
        break;
      }
      case kSnapshot: return read_integer(value, &p->snapshot_version);
      default: break;
    }
    return true;
  });
}

}  // namespace

void truncate_trace_id(std::string& id) {
  if (id.size() <= kMaxTraceIdBytes) return;
  // Back over at most three continuation bytes (10xxxxxx), the most a
  // UTF-8 character has, to the byte that starts the cut character.
  std::size_t cut = kMaxTraceIdBytes;
  for (int k = 0; k < 3 && cut > 0 &&
                  (static_cast<unsigned char>(id[cut]) & 0xC0) == 0x80;
       ++k) {
    --cut;
  }
  id.resize(cut);
}

bool parse_request_into(std::string_view json, Request* out) {
  using namespace request_key;
  RequestFields f;
  std::string op;
  if (!read_request_fields(json, &f) || !f[kOp] ||
      !string_value(*f[kOp], &op)) {
    return false;
  }
  // Cut here, not at annotation time, so the echoed id and the span's id
  // can never disagree.
  if (!f[kTraceId] || !string_value(*f[kTraceId], &out->trace_id)) {
    out->trace_id.clear();
  }
  truncate_trace_id(out->trace_id);
  const std::size_t slot = key_slot<kOpNames>(op);
  if (slot == kOpNames.size()) return false;
  out->op = static_cast<RequestOp>(slot);
  switch (out->op) {
    case RequestOp::kPredict:
      out->queries.resize(1);
      return read_query(f, &out->queries.front());
    case RequestOp::kBatch: {
      if (!f[kQueries]) return false;
      std::size_t n = 0;
      const bool read = for_each_object(
          *f[kQueries], [out, &n](std::string_view element) {
            RequestFields e;
            if (!read_request_fields(element, &e)) return false;
            if (n == out->queries.size()) out->queries.emplace_back();
            return read_query(e, &out->queries[n++]);
          });
      out->queries.resize(n);
      return read && n != 0;
    }
    default:
      out->queries.clear();
      return true;
  }
}

std::optional<Request> parse_request(std::string_view json) {
  std::optional<Request> request(std::in_place);
  if (!parse_request_into(json, &*request)) request.reset();
  return request;
}

void splice_trace_id(std::string& out, std::size_t start,
                     std::string_view trace_id) {
  if (trace_id.empty() || out.size() == start || out.back() != '}') return;
  out.pop_back();
  Cursor w(out, trace_field_bytes(trace_id) + 1);
  write_trace_field(w, trace_id);
  w.raw("}"sv);
}

std::string attach_trace_id(std::string json, const std::string& trace_id) {
  splice_trace_id(json, 0, trace_id);
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

void append_predict_request(std::string& out, const QueryKey& query,
                            std::string_view trace_id) {
  constexpr std::string_view kOpen = "{\"op\":\"predict\","sv;
  Cursor w(out, kOpen.size() + query_fields_bytes(query) +
                    trace_field_bytes(trace_id) + 1);
  w.raw(kOpen);
  write_query_fields(w, query);
  write_trace_field(w, trace_id);
  w.raw("}"sv);
}

void append_batch_request(std::string& out, std::span<const QueryKey> queries,
                          std::string_view trace_id) {
  constexpr std::string_view kOpen = "{\"op\":\"batch\",\"queries\":["sv;
  std::size_t bound = kOpen.size() + 1 + trace_field_bytes(trace_id) + 1;
  for (const QueryKey& q : queries) bound += 3 + query_fields_bytes(q);
  Cursor w(out, bound);
  w.raw(kOpen);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    w.raw(i == 0 ? "{"sv : ",{"sv);
    write_query_fields(w, queries[i]);
    w.raw("}"sv);
  }
  w.raw("]"sv);
  write_trace_field(w, trace_id);
  w.raw("}"sv);
}

std::string predict_request(const QueryKey& query,
                            const std::string& trace_id) {
  std::string out;
  append_predict_request(out, query, trace_id);
  return out;
}

std::string batch_request(const std::vector<QueryKey>& queries,
                          const std::string& trace_id) {
  std::string out;
  append_batch_request(out, queries, trace_id);
  return out;
}

void append_prediction_json(std::string& out, const Prediction& p) {
  using namespace prediction_key;
  const std::size_t strings =
      p.error.size() + p.key.application.size() + p.key.config.size() +
      p.alpha_source.size() + p.inputs_source.size() + p.source.size() +
      p.model_form.size();
  Cursor w(out, kPredictionBytes + kMaxEscapedBytes * strings);
  if (p.ok) {
    w.raw("{\"ok\":true"sv);
  } else {
    w.raw("{\"ok\":false"sv);
    w.string(kNames[kError], p.error);
  }
  w.string(kNames[kApp], p.key.application);
  w.string(kNames[kConfig], p.key.config);
  w.integer(kNames[kRanks], p.key.ranks);
  w.integer(kNames[kChain], p.key.chain_length);
  w.number(kNames[kCouplingS], p.coupling_s);
  w.number(kNames[kSummationS], p.summation_s);
  w.number(kNames[kActualS], p.actual_s);
  w.number(kNames[kCouplingErr], p.coupling_error);
  w.number(kNames[kSummationErr], p.summation_error);
  if (!p.alpha_source.empty()) w.string(kNames[kAlpha], p.alpha_source);
  if (!p.inputs_source.empty()) w.string(kNames[kInputs], p.inputs_source);
  if (!p.source.empty()) w.string(kNames[kSource], p.source);
  if (!p.model_form.empty()) w.string(kNames[kModelForm], p.model_form);
  if (p.donor_ranks > 0) w.integer(kNames[kDonorRanks], p.donor_ranks);
  w.string(kNames[kCache], p.cache_hit ? "hit"sv : "miss"sv);
  w.integer(kNames[kSnapshot], p.snapshot_version);
  w.raw("}"sv);
}

void append_batch_json(std::string& out, std::span<const Prediction> results) {
  out += "{\"ok\":true,\"results\":["sv;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) out += ',';
    append_prediction_json(out, results[i]);
  }
  out += "]}"sv;
}

void append_error_json(std::string& out, std::string_view error, int code) {
  constexpr std::string_view kOpen = "{\"ok\":false"sv;
  constexpr std::string_view kError = "error"sv;
  constexpr std::string_view kCode = "code"sv;
  Cursor w(out, kOpen.size() + key_bytes(kError) + kQuotes +
                    kMaxEscapedBytes * error.size() + key_bytes(kCode) +
                    kIntegerBytes<int> + 1);
  w.raw(kOpen);
  w.string(kError, error);
  w.integer(kCode, code);
  w.raw("}"sv);
}

std::string prediction_json(const Prediction& p) {
  std::string out;
  append_prediction_json(out, p);
  return out;
}

std::string batch_json(std::span<const Prediction> results) {
  std::string out;
  append_batch_json(out, results);
  return out;
}

std::string error_json(const std::string& error, int code) {
  std::string out;
  append_error_json(out, error, code);
  return out;
}

std::optional<Prediction> parse_prediction(std::string_view json) {
  std::optional<Prediction> p(std::in_place);
  if (!read_prediction(json, &*p)) p.reset();
  return p;
}

std::optional<std::vector<Prediction>> parse_batch_response(
    std::string_view json) {
  std::optional<std::string_view> results;
  const bool whole = for_each_field(
      json, [&results](std::string_view key, std::string_view value) {
        if (!results && key_slot<kResultsName>(key) == 0) results = value;
        return true;
      });
  if (!whole || !results) return std::nullopt;
  std::vector<Prediction> out;
  const bool read =
      for_each_object(*results, [&out](std::string_view element) {
        return read_prediction(element, &out.emplace_back());
      });
  if (!read) return std::nullopt;
  return out;
}

}  // namespace kcoup::serve

#include "serve/protocol.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::serve {

namespace {

using namespace std::string_view_literals;
using support::json::append_escaped;
using support::json::IntegerRead;
using support::json::parse_integer;
using support::json::string_value;

template <typename T>
void append_integer(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `,"name":` — the separator and key in front of every field but the first.
void append_key(std::string& out, std::string_view name) {
  out += ",\""sv;
  out += name;
  out += "\":"sv;
}

void append_number(std::string& out, std::string_view name, double v) {
  if (!std::isfinite(v)) return;  // absent => NaN on the reader's side
  append_key(out, name);
  char buf[24];
  out.append(buf, support::format_double(buf, v));
}

void append_string(std::string& out, std::string_view name,
                   std::string_view v) {
  append_key(out, name);
  out += '"';
  append_escaped(out, v);
  out += '"';
}

template <typename T>
void append_integer_field(std::string& out, std::string_view name, T v) {
  append_key(out, name);
  append_integer(out, v);
}

/// The optional trace-context field, written in front of a closing brace.
void append_trace_field(std::string& out, std::string_view trace_id) {
  if (!trace_id.empty()) append_string(out, "trace_id"sv, trace_id);
}

/// {"app":...,"config":...,"ranks":N,"chain":N — without the closing brace.
void append_query_fields(std::string& out, const QueryKey& q) {
  out += "\"app\":\""sv;
  append_escaped(out, q.application);
  out += '"';
  append_string(out, "config"sv, q.config);
  append_integer_field(out, "ranks"sv, q.ranks);
  append_integer_field(out, "chain"sv, q.chain_length);
}

/// Position of `key` in `names`, searched from *next (the slot after the
/// previous match) round to the start, so fields in the encoder's order
/// match on the first compare; names.size() when it is none of them.
template <std::size_t N>
std::size_t key_slot(std::string_view key,
                     const std::array<std::string_view, N>& names,
                     std::size_t* next) {
  for (std::size_t k = 0; k < N; ++k) {
    const std::size_t i = (*next + k) % N;
    if (names[i] == key) {
      *next = (i + 1) % N;
      return i;
    }
  }
  return N;
}

/// Walk `json`'s fields once and hand each key of `names` to
/// visit(slot, raw value) at its first occurrence; the accessors' rule that
/// the first duplicate wins.  False as soon as visit returns false.
template <std::size_t N, typename Visit>
bool visit_fields(const support::json::Object& json,
                  const std::array<std::string_view, N>& names,
                  Visit&& visit) {
  static_assert(N <= 32, "the seen-mask is 32 bits");
  std::uint32_t seen = 0;
  std::size_t next = 0;
  for (const support::json::Object::Field& field : json.fields()) {
    const std::size_t slot = key_slot(field.key, names, &next);
    if (slot == N || ((seen >> slot) & 1u) != 0) continue;
    seen |= 1u << slot;
    if (!visit(slot, field.value)) return false;
  }
  return true;
}

/// *out = the decoded string, when the value is one.
void read_string(std::string_view raw, std::string* out) {
  if (auto v = string_value(raw)) *out = std::move(*v);
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

namespace request_key {
enum : std::size_t { kOp, kApp, kConfig, kRanks, kChain, kTraceId, kCount };
// predict_request's order.
constexpr std::array<std::string_view, kCount> kNames = {
    "op", "app", "config", "ranks", "chain", "trace_id"};
}  // namespace request_key

/// The raw value of each request key, from its first occurrence.
using RequestFields =
    std::array<std::optional<std::string_view>, request_key::kCount>;

RequestFields request_fields(const support::json::Object& json) {
  RequestFields f;
  (void)visit_fields(json, request_key::kNames,
                     [&f](std::size_t slot, std::string_view value) {
                       f[slot] = value;
                       return true;
                     });
  return f;
}

std::optional<QueryKey> query_from(const RequestFields& f) {
  using namespace request_key;
  if (!f[kApp] || !f[kConfig] || !f[kRanks] || !f[kChain]) {
    return std::nullopt;
  }
  auto app = string_value(*f[kApp]);
  auto config = string_value(*f[kConfig]);
  if (!app || !config) return std::nullopt;
  QueryKey q;
  constexpr int kMax = std::numeric_limits<int>::max();
  if (parse_integer(*f[kRanks], &q.ranks, 1, kMax) != IntegerRead::kRead ||
      parse_integer(*f[kChain], &q.chain_length, std::size_t{1},
                    std::size_t{kMax}) != IntegerRead::kRead) {
    return std::nullopt;
  }
  q.application = std::move(*app);
  q.config = std::move(*config);
  return q;
}

namespace prediction_key {
enum : std::size_t {
  kOk, kError, kApp, kConfig, kRanks, kChain, kCouplingS, kSummationS,
  kActualS, kCouplingErr, kSummationErr, kAlpha, kInputs, kSource,
  kModelForm, kDonorRanks, kCache, kSnapshot, kCount
};
// prediction_json's order.
constexpr std::array<std::string_view, kCount> kNames = {
    "ok",          "error",         "app",         "config",
    "ranks",       "chain",         "coupling_s",  "summation_s",
    "actual_s",    "coupling_err",  "summation_err", "alpha",
    "inputs",      "source",        "model_form",  "donor_ranks",
    "cache",       "snapshot"};
}  // namespace prediction_key

std::optional<Prediction> prediction_from(const support::json::Object& json) {
  using namespace prediction_key;
  Prediction p;
  const bool read = visit_fields(
      json, kNames, [&p](std::size_t slot, std::string_view value) {
        switch (slot) {
          case kOk: p.ok = value == "true"sv; break;
          case kError: read_string(value, &p.error); break;
          case kApp: read_string(value, &p.key.application); break;
          case kConfig: read_string(value, &p.key.config); break;
          case kRanks: return read_integer(value, &p.key.ranks);
          case kChain: return read_integer(value, &p.key.chain_length);
          case kCouplingS: read_number(value, &p.coupling_s); break;
          case kSummationS: read_number(value, &p.summation_s); break;
          case kActualS: read_number(value, &p.actual_s); break;
          case kCouplingErr: read_number(value, &p.coupling_error); break;
          case kSummationErr: read_number(value, &p.summation_error); break;
          case kAlpha: read_string(value, &p.alpha_source); break;
          case kInputs: read_string(value, &p.inputs_source); break;
          case kSource: read_string(value, &p.source); break;
          case kModelForm: read_string(value, &p.model_form); break;
          case kDonorRanks: return read_integer(value, &p.donor_ranks);
          case kCache:
            if (const auto v = string_value(value)) p.cache_hit = *v == "hit";
            break;
          case kSnapshot: return read_integer(value, &p.snapshot_version);
          default: break;
        }
        return true;
      });
  if (!read) return std::nullopt;
  return p;
}

}  // namespace

std::optional<Request> parse_request(std::string_view json) {
  const auto request = support::json::Object::parse(json);
  if (!request.has_value()) return std::nullopt;
  using namespace request_key;
  const RequestFields f = request_fields(*request);
  const auto op = f[kOp] ? string_value(*f[kOp]) : std::nullopt;
  if (!op.has_value()) return std::nullopt;
  Request req;
  if (f[kTraceId]) {
    if (const auto id = string_value(*f[kTraceId])) {
      // Truncate here, not at annotation time, so the echoed id and the
      // span's id can never disagree.
      req.trace_id = id->substr(0, kMaxTraceIdBytes);
    }
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
    auto q = query_from(f);
    if (!q.has_value()) return std::nullopt;
    req.queries.push_back(std::move(*q));
    return req;
  }
  if (*op == "batch") {
    req.op = RequestOp::kBatch;
    const auto elements = request->objects("queries");
    if (!elements.has_value() || elements->empty()) return std::nullopt;
    req.queries.reserve(elements->size());
    for (const support::json::Object& element : *elements) {
      auto q = query_from(request_fields(element));
      if (!q.has_value()) return std::nullopt;
      req.queries.push_back(std::move(*q));
    }
    return req;
  }
  return std::nullopt;
}

void splice_trace_id(std::string& out, std::size_t start,
                     std::string_view trace_id) {
  if (trace_id.empty() || out.size() == start || out.back() != '}') return;
  out.pop_back();
  append_trace_field(out, trace_id);
  out += '}';
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
  out += "{\"op\":\"predict\","sv;
  append_query_fields(out, query);
  append_trace_field(out, trace_id);
  out += '}';
}

void append_batch_request(std::string& out, std::span<const QueryKey> queries,
                          std::string_view trace_id) {
  out += "{\"op\":\"batch\",\"queries\":["sv;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    append_query_fields(out, queries[i]);
    out += '}';
  }
  out += ']';
  append_trace_field(out, trace_id);
  out += '}';
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
  out += p.ok ? "{\"ok\":true"sv : "{\"ok\":false"sv;
  if (!p.ok) append_string(out, "error"sv, p.error);
  append_string(out, "app"sv, p.key.application);
  append_string(out, "config"sv, p.key.config);
  append_integer_field(out, "ranks"sv, p.key.ranks);
  append_integer_field(out, "chain"sv, p.key.chain_length);
  append_number(out, "coupling_s"sv, p.coupling_s);
  append_number(out, "summation_s"sv, p.summation_s);
  append_number(out, "actual_s"sv, p.actual_s);
  append_number(out, "coupling_err"sv, p.coupling_error);
  append_number(out, "summation_err"sv, p.summation_error);
  if (!p.alpha_source.empty()) append_string(out, "alpha"sv, p.alpha_source);
  if (!p.inputs_source.empty()) {
    append_string(out, "inputs"sv, p.inputs_source);
  }
  if (!p.source.empty()) append_string(out, "source"sv, p.source);
  if (!p.model_form.empty()) {
    append_string(out, "model_form"sv, p.model_form);
  }
  if (p.donor_ranks > 0) {
    append_integer_field(out, "donor_ranks"sv, p.donor_ranks);
  }
  append_string(out, "cache"sv, p.cache_hit ? "hit"sv : "miss"sv);
  append_integer_field(out, "snapshot"sv, p.snapshot_version);
  out += '}';
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
  out += "{\"ok\":false"sv;
  append_string(out, "error"sv, error);
  append_integer_field(out, "code"sv, code);
  out += '}';
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
  const auto response = support::json::Object::parse(json);
  if (!response.has_value()) return std::nullopt;
  return prediction_from(*response);
}

std::optional<std::vector<Prediction>> parse_batch_response(
    std::string_view json) {
  const auto response = support::json::Object::parse(json);
  if (!response.has_value()) return std::nullopt;
  const auto elements = response->objects("results");
  if (!elements.has_value()) return std::nullopt;
  std::vector<Prediction> out;
  out.reserve(elements->size());
  for (const support::json::Object& element : *elements) {
    auto p = prediction_from(element);
    if (!p.has_value()) return std::nullopt;
    out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace kcoup::serve

#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::serve {

namespace {

using support::json::escape;
using support::json::read_integer;

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

std::optional<QueryKey> parse_query(const support::json::Object& json) {
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

std::optional<Prediction> prediction_from(const support::json::Object& json) {
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
  const auto request = support::json::Object::parse(json);
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
    for (const support::json::Object& element : *elements) {
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
    out += prediction_json(results[i]);
  }
  out += "]}";
  return out;
}

std::string error_json(const std::string& error, int code) {
  return "{\"ok\":false,\"error\":\"" + escape(error) +
         "\",\"code\":" + std::to_string(code) + "}";
}

std::optional<Prediction> parse_prediction(const std::string& json) {
  const auto response = support::json::Object::parse(json);
  if (!response.has_value()) return std::nullopt;
  return prediction_from(*response);
}

std::optional<std::vector<Prediction>> parse_batch_response(
    const std::string& json) {
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

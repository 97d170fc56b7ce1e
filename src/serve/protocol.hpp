#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/query_engine.hpp"

namespace kcoup::serve {

/// Wire format: length-prefixed JSON lines over TCP.  One frame is the
/// payload's byte count in ASCII decimal, a '\n', then exactly that many
/// payload bytes (one JSON object, no trailing newline required):
///
///   13\n{"op":"ping"}
///
/// Both directions use the same framing.  Doubles are serialized with 17
/// significant digits (support::format_double), so a prediction survives
/// the round trip bit-identically; non-finite values are omitted and read
/// back as NaN.

// --- Requests ---------------------------------------------------------------

enum class RequestOp { kPing, kStats, kMetrics, kSlowlog, kPredict, kBatch };

/// Longest accepted trace id, chosen to fit a span annotation value buffer
/// (obs::SpanAnnotation) without truncation; longer ids are cut here so the
/// id echoed in the response always matches the one in the server's spans.
inline constexpr std::size_t kMaxTraceIdBytes = 40;

struct Request {
  RequestOp op = RequestOp::kPing;
  std::vector<QueryKey> queries;  ///< one for kPredict, many for kBatch
  /// Optional caller-supplied trace context: annotated onto the server's
  /// per-request span and echoed in the response, so a client-side trace
  /// export and the server's --trace-out stitch into one timeline.
  std::string trace_id;
};

/// Parse a request payload; nullopt on anything malformed.
[[nodiscard]] std::optional<Request> parse_request(const std::string& json);

/// Serialize requests (used by the client).  A non-empty `trace_id` is
/// attached as the optional "trace_id" field.
[[nodiscard]] std::string ping_request(const std::string& trace_id = {});
[[nodiscard]] std::string stats_request(const std::string& trace_id = {});
/// `metrics` op: the response frame is Prometheus text exposition (the one
/// non-JSON payload in the protocol), rendered from the server's registry.
[[nodiscard]] std::string metrics_request(const std::string& trace_id = {});
/// `slowlog` op: {"ok":true,"slowest":[...],"failed":[...]}.
[[nodiscard]] std::string slowlog_request(const std::string& trace_id = {});
[[nodiscard]] std::string predict_request(const QueryKey& query,
                                          const std::string& trace_id = {});
[[nodiscard]] std::string batch_request(const std::vector<QueryKey>& queries,
                                        const std::string& trace_id = {});

/// Splice `,"trace_id":"..."` in front of a JSON object's closing brace —
/// how the server echoes the request's trace context in its response.  A
/// payload that is not a JSON object (the metrics exposition) or an empty
/// trace id returns the payload unchanged.
[[nodiscard]] std::string attach_trace_id(std::string json,
                                          const std::string& trace_id);

// --- Responses --------------------------------------------------------------

/// {"ok":true,...} for one prediction (error predictions serialize with
/// "ok":false and "error").
[[nodiscard]] std::string prediction_json(const Prediction& p);
/// {"ok":true,"results":[...]} for a batch.  Takes a span so the server
/// can serialize a frame's sub-range of the window's shared result vector
/// without copying the predictions first.
[[nodiscard]] std::string batch_json(std::span<const Prediction> results);
/// {"ok":false,"error":...,"code":N} server-level refusal (overload,
/// malformed frame, bad request).
[[nodiscard]] std::string error_json(const std::string& error, int code);

/// Parse one prediction object (the client's inverse of prediction_json);
/// nullopt when the text is not one JSON object, or when "ranks",
/// "donor_ranks", "chain" or "snapshot" lies outside the range of its
/// field's type.
[[nodiscard]] std::optional<Prediction> parse_prediction(
    const std::string& json);
/// Parse a batch response (the client's inverse of batch_json); nullopt
/// when the frame carries no "results" array or an element fails as in
/// parse_prediction.
[[nodiscard]] std::optional<std::vector<Prediction>> parse_batch_response(
    const std::string& json);

}  // namespace kcoup::serve

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

/// Cut `id` to at most kMaxTraceIdBytes, at a UTF-8 code-point boundary: a
/// character that would straddle the limit is dropped whole, so an echoed
/// id stays valid UTF-8.  An ASCII id keeps exactly kMaxTraceIdBytes.  The
/// server cuts a request's id with it, and the client the ids it sends.
void truncate_trace_id(std::string& id);

struct Request {
  RequestOp op = RequestOp::kPing;
  std::vector<QueryKey> queries;  ///< one for kPredict, many for kBatch
  /// Optional caller-supplied trace context: annotated onto the server's
  /// per-request span and echoed in the response, so a client-side trace
  /// export and the server's --trace-out stitch into one timeline.
  std::string trace_id;
};

/// Parse a request payload into *out, reusing its storage: a server shard
/// keeps one Request per pipelined frame across windows, so a warm window
/// decodes without allocating.  False on anything malformed, and *out is
/// then unspecified; on true every field of *out comes from `json`.
/// "ranks" and "chain" must be integers in [1, INT_MAX]: a fraction is
/// refused, never truncated (support::json::parse_integer).  The trace id
/// is cut by truncate_trace_id.
[[nodiscard]] bool parse_request_into(std::string_view json, Request* out);
/// parse_request_into a new Request; nullopt where it returns false.
[[nodiscard]] std::optional<Request> parse_request(std::string_view json);

// --- Encoders ---------------------------------------------------------------
//
// Each encoder appends its payload to the end of a caller's string, so the
// server writes a response straight into a connection's write buffer and
// the client a request into its transmit buffer.  An encoder sizes the
// string once, to a bound computed from its field list, writes through a
// cursor and trims to what it wrote.  The string-returning names below
// wrap them.

void append_predict_request(std::string& out, const QueryKey& query,
                            std::string_view trace_id = {});
void append_batch_request(std::string& out, std::span<const QueryKey> queries,
                          std::string_view trace_id = {});
void append_prediction_json(std::string& out, const Prediction& p);
void append_batch_json(std::string& out, std::span<const Prediction> results);
void append_error_json(std::string& out, std::string_view error, int code);
/// Splice `,"trace_id":"..."` in front of the closing brace of the JSON
/// object that runs from out[start] to the end of `out`.  A payload that is
/// not a JSON object (the metrics exposition) or an empty trace id is left
/// unchanged.
void splice_trace_id(std::string& out, std::size_t start,
                     std::string_view trace_id);

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

/// splice_trace_id over a whole payload — how the server echoes the
/// request's trace context in its response.
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
/// malformed frame, bad request, a failed prediction window).
[[nodiscard]] std::string error_json(const std::string& error, int code);

/// Parse one prediction object (the client's inverse of prediction_json);
/// nullopt when the text is not one JSON object, or when "ranks",
/// "donor_ranks", "chain" or "snapshot" is a fraction or lies outside the
/// range of its field's type.  Each key is read from its first occurrence.
[[nodiscard]] std::optional<Prediction> parse_prediction(
    std::string_view json);
/// Parse a batch response (the client's inverse of batch_json); nullopt
/// when the frame carries no "results" array or an element fails as in
/// parse_prediction.
[[nodiscard]] std::optional<std::vector<Prediction>> parse_batch_response(
    std::string_view json);

}  // namespace kcoup::serve

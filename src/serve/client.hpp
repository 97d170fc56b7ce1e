#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "serve/query_engine.hpp"

namespace kcoup::serve {

/// Minimal blocking client for the serve protocol (one frame out, one frame
/// in).  Used by `kcoup query`, the server tests, and the throughput bench.
/// Responses are read through the server's own frame decoder from a
/// per-connection receive buffer, so pipelined responses that arrive in one
/// segment cost one recv(2), and a response announcing more than 64 MiB is
/// refused as soon as its length arrives, with nothing allocated for it.
/// Not thread-safe; open one Client per thread.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect to host:port; throws std::runtime_error on failure, and for
  /// a port outside [0, 65535].
  void connect(const std::string& host, int port);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Send one framed payload and read one framed response.  Nullopt when
  /// the connection drops (e.g. the server closed it after an error frame).
  [[nodiscard]] std::optional<std::string> roundtrip(
      const std::string& payload);

  /// Send raw bytes with no framing — for malformed/oversized-frame tests.
  /// Returns the response payload if the server sends one.
  [[nodiscard]] std::optional<std::string> roundtrip_raw(
      const std::string& bytes);

  /// Pipelining primitives: send one framed request without waiting for
  /// its response, and read one framed response without sending anything.
  /// The server answers strictly in request order, so K send_request()
  /// calls followed by K read_response() calls pair up positionally.
  [[nodiscard]] bool send_request(const std::string& payload);
  [[nodiscard]] std::optional<std::string> read_response() {
    return read_frame();
  }

  [[nodiscard]] bool ping();
  [[nodiscard]] std::optional<Prediction> predict(const QueryKey& query);
  [[nodiscard]] std::optional<std::vector<Prediction>> predict_batch(
      const std::vector<QueryKey>& queries);
  /// The server's metrics JSONL record, verbatim.
  [[nodiscard]] std::optional<std::string> stats();
  /// The server's Prometheus text exposition (`metrics` op), verbatim.
  [[nodiscard]] std::optional<std::string> metrics();
  /// The server's slow-request log (`slowlog` op), verbatim JSON.
  [[nodiscard]] std::optional<std::string> slowlog();

  // --- Trace-context propagation -------------------------------------------
  //
  // A set or auto-generated trace id is attached to every typed request
  // (ping/predict/predict_batch/stats/metrics/slowlog) as the "trace_id"
  // field; the server annotates its per-request span with it and echoes it
  // in the response.  The same id is annotated on the client-side span each
  // typed call records (when obs::Tracer is enabled), so a client trace
  // export and the server's --trace-out stitch into one timeline.

  /// Use this exact id for every subsequent request (empty = none).
  /// Overrides auto-generation.
  void set_trace_id(std::string id);
  /// Generate a fresh `<prefix>-<n>` id per request; an empty prefix picks
  /// a process-unique default ("c<pid>").
  void auto_trace_ids(std::string prefix = {});
  /// The id attached to the most recent typed request ("" when none).
  [[nodiscard]] const std::string& last_trace_id() const {
    return last_trace_id_;
  }

 private:
  /// The next frame from rx_, receiving more bytes only while rx_ lacks a
  /// whole one.  Nullopt on EOF, a socket error, or a malformed or
  /// oversized length prefix.
  [[nodiscard]] std::optional<std::string> read_frame();
  /// The trace id for the next request: the fixed id, a generated one, or
  /// "".  Records it as last_trace_id().
  [[nodiscard]] const std::string& next_trace_id();

  int fd_ = -1;
  std::string rx_;          ///< received bytes not yet returned as frames
  std::size_t rx_pos_ = 0;  ///< offset of the first undecoded byte in rx_
  std::string trace_id_;
  std::string auto_prefix_;
  std::uint64_t auto_seq_ = 0;
  std::string last_trace_id_;
};

}  // namespace kcoup::serve

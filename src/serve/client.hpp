#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "serve/query_engine.hpp"

namespace kcoup::serve {

/// Minimal blocking client for the serve protocol (one frame out, one frame
/// in).  Used by `kcoup query`, the server tests, and the throughput bench.
///
/// Requests are queued in a per-connection transmit buffer and leave in one
/// send(2) when a read must wait for the peer, in roundtrip() and
/// roundtrip_raw(), and once 64 KiB are queued; so a pipelined window of
/// requests reaches the server in one segment and wakes it once.  Responses
/// are read through the server's own frame decoder from a per-connection
/// receive buffer, so pipelined responses that arrive in one segment cost
/// one recv(2), and a response announcing more than 64 MiB is refused as
/// soon as its length arrives, with nothing allocated for it.  close() and
/// connect() drop both buffers; a move carries them.
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

  /// Send one framed payload, behind any queued requests, and read one
  /// framed response.  Nullopt when the connection drops (e.g. the server
  /// closed it after an error frame).
  [[nodiscard]] std::optional<std::string> roundtrip(
      const std::string& payload);

  /// Send raw bytes with no framing, behind any queued requests — for
  /// malformed/oversized-frame tests.  Returns the next response payload
  /// if the server sends one.
  [[nodiscard]] std::optional<std::string> roundtrip_raw(
      const std::string& bytes);

  /// Pipelining primitives: queue one framed request without waiting for
  /// its response, and read one framed response.  The server answers
  /// strictly in request order, so K send_request() calls followed by K
  /// read_response() calls pair up positionally.
  ///
  /// send_request returns true once the request is queued; it sends only
  /// when the queue reaches 64 KiB, and returns false when not connected
  /// or when that send fails.  Otherwise a failed send shows at the next
  /// read_response(), as nullopt: the queue leaves when a read has no
  /// buffered response left and must wait for the peer.
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

  /// Use this exact id for every subsequent request (empty = none), cut as
  /// the server cuts it (truncate_trace_id).  Overrides auto-generation.
  void set_trace_id(std::string id);
  /// Generate a fresh `<prefix>-<n>` id per request, cut like a set id; an
  /// empty prefix picks a process-unique default ("c<pid>").
  void auto_trace_ids(std::string prefix = {});
  /// The id attached to the most recent typed request ("" when none).
  [[nodiscard]] const std::string& last_trace_id() const {
    return last_trace_id_;
  }

 private:
  /// The next frame from rx_, receiving more bytes only while rx_ lacks a
  /// whole one, after flushing tx_.  Nullopt on EOF, a socket error, a
  /// failed send, or a malformed or oversized length prefix.
  [[nodiscard]] std::optional<std::string> read_frame();
  /// Send everything queued in tx_ in one send_all and empty it, sent or
  /// not.  False when the send failed.
  [[nodiscard]] bool flush();
  /// The trace id for the next request: the fixed id, a generated one, or
  /// "".  Records it as last_trace_id().
  [[nodiscard]] const std::string& next_trace_id();

  int fd_ = -1;
  std::string rx_;          ///< received bytes not yet returned as frames
  std::size_t rx_pos_ = 0;  ///< offset of the first undecoded byte in rx_
  std::string tx_;          ///< queued request bytes not yet sent
  std::string trace_id_;
  std::string auto_prefix_;
  std::uint64_t auto_seq_ = 0;
  std::string last_trace_id_;
};

}  // namespace kcoup::serve

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/framing.hpp"
#include "serve/metrics.hpp"
#include "serve/poller.hpp"
#include "serve/query_engine.hpp"
#include "serve/slowlog.hpp"
#include "serve/snapshot.hpp"

namespace kcoup::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< loopback only by design
  /// 0 = kernel-assigned ephemeral port; start() throws BindError for a
  /// port outside [0, 65535].
  int port = 0;
  /// Event-loop shards (one thread each); connections are assigned
  /// round-robin at accept and stay on their shard for life.
  std::size_t workers = 4;
  /// Open connections before the accept loop starts fast-rejecting with a
  /// code-429 frame; 0 = 2 * workers.
  std::size_t max_inflight = 0;
  /// Largest accepted request payload; larger frames get a code-413 frame
  /// and the connection is closed.
  std::size_t max_frame_bytes = 64 * 1024;
  /// Most complete frames decoded into one pipelined batch window: every
  /// predict/batch query in a window shares one snapshot acquisition and
  /// one QueryEngine::predict_batch_into call.  Also the fairness bound — a
  /// connection with more buffered frames yields to the event loop between
  /// windows.
  std::size_t max_pipeline = 64;
  /// Use the poll(2) backend even where epoll is available (tests keep the
  /// fallback honest on Linux).
  bool force_poll = false;
  /// Slow-request log capacities (see serve/slowlog.hpp): how many slowest
  /// requests to keep, and the ring size for failed requests.
  std::size_t slowlog_slowest = 32;
  std::size_t slowlog_failed = 64;
};

/// Thrown when the listening socket cannot be created/bound; the CLI maps
/// it to exit code 4 so scripts can tell "port taken" from other failures.
class BindError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Loopback TCP front end for the query engine, built as a readiness-based
/// event loop: one accept thread hands non-blocking connections round-robin
/// to N event-loop shards (epoll on Linux, poll(2) fallback — see
/// poller.hpp), each a single thread owning its connections' read/write
/// buffers.  Frames are decoded incrementally from the read buffer
/// (length-prefixed JSON, see protocol.hpp), so a connection may have many
/// requests in flight: each wakeup drains up to max_pipeline complete
/// frames into one batch window whose predict/batch queries share a single
/// snapshot acquisition and one QueryEngine::predict_batch_into call.
/// Responses are appended to a per-connection write buffer and flushed as
/// the socket accepts them (EPOLLOUT when it doesn't), with responses
/// always in request order.
///
/// Admission control is at accept: when max_inflight connections are
/// already open, the new connection gets one error frame (code 429) sent
/// with a single non-blocking send — a stalled peer can never block the
/// accept loop — and is closed.
///
/// stop() is a graceful drain: the listener closes, every connection's
/// read side is shut down after one final drain of already-arrived bytes,
/// buffered complete frames are processed, and write buffers are flushed
/// before the shard threads exit — zero dropped in-flight requests.
///
/// All server counters live in an obs::MetricsRegistry ("serve.*" names)
/// with the hot-path references bound once at construction; request
/// latencies land in the "serve.request_seconds" histogram.  When
/// obs::Tracer is enabled every request frame emits a span (category
/// "serve") annotated with the op, cache hits, fallback kind and the
/// client-supplied trace_id (which is also echoed in the response frame, so
/// client- and server-side trace exports stitch into one timeline).
///
/// Beyond the cumulative registry, each shard owns a set of rolling
/// one-second windows (obs::WindowedCounter / WindowedHistogram, written
/// only by the shard thread — the single-writer contract) that the stats op
/// merges into 1s/10s/60s rps, error-rate and latency quantiles; a SlowLog
/// keeps the K slowest plus recent failed requests for the slowlog op; and
/// the metrics op renders the whole registry as Prometheus text exposition.
/// Prediction-quality telemetry rides along: per-snapshot fallback-source
/// counters, a donor rank-distance histogram
/// ("serve.donor.rank_distance"), and the SnapshotSource's reload drift
/// report exported as serve.drift.* gauges.
class Server {
 public:
  Server(SnapshotSource* source, QueryEngine* engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the shard and accept threads.  Throws BindError
  /// when the socket cannot be bound.
  void start();

  /// Graceful drain (see class comment).  Idempotent.
  void stop();

  /// The bound port (useful with config.port = 0).
  [[nodiscard]] int port() const { return port_; }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t requests_handled() const {
    return c_requests_.value();
  }

  /// Point-in-time aggregate: server counters + engine cache stats +
  /// snapshot reload stats + latency quantiles + uptime since start().
  [[nodiscard]] ServeMetrics metrics() const;

  /// The live metrics store behind metrics() — "serve.*" counters and the
  /// "serve.request_seconds" histogram update as requests are handled.
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }

  /// Prometheus text exposition (format 0.0.4) of the whole registry,
  /// bit-exact for a given metric state: derived gauges (uptime, tracer
  /// span/drop counts, serve.drift.*) are synced into the registry first,
  /// then obs::render_prometheus does a deterministic name-sorted render.
  /// This is the payload of the "metrics" wire op.
  [[nodiscard]] std::string prometheus();

 private:
  /// One connection owned by one shard thread: unconsumed request bytes in
  /// rbuf (rpos = decode offset), unflushed response bytes in wbuf (wpos =
  /// send offset).
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::size_t rpos = 0;
    std::string wbuf;
    std::size_t wpos = 0;
    bool peer_eof = false;          ///< recv saw EOF; close once flushed
    bool close_after_flush = false; ///< framing error: flush then close
    bool reads_enabled = true;      ///< poller read interest
    bool want_write = false;        ///< poller write interest
  };

  /// One event-loop shard: a poller, a wake pipe the acceptor pokes, and
  /// the connections assigned to it.  All fields except the locked inbox
  /// are touched only by the shard thread.
  struct Shard {
    explicit Shard(bool force_poll) : poller(force_poll) {}
    Poller poller;
    std::size_t index = 0;  ///< position in shards_ / windows_
    int wake_rd = -1;
    int wake_wr = -1;
    std::thread thread;
    std::mutex mutex;
    std::vector<int> incoming;  ///< accepted fds waiting to be adopted
    bool stop = false;
    std::unordered_map<int, Conn> conns;
  };

  /// Rolling windows for one shard.  Written only by the shard thread
  /// (including the drain path, which runs on it) — the WindowedCounter /
  /// WindowedHistogram single-writer contract; read from any thread by the
  /// stats op's merge.
  struct ShardWindows {
    obs::WindowedCounter requests;
    obs::WindowedCounter errors;
    obs::WindowedHistogram latency;
  };

  /// Fallback-source mix scoped to the currently published snapshot:
  /// reset (under mix_mutex_) when a window first observes a new snapshot
  /// version, so the mix answers "how is *this* snapshot answering", not
  /// "how has the process ever answered".
  struct SourceMix {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> exact{0};
    std::atomic<std::uint64_t> nearest{0};
    std::atomic<std::uint64_t> model{0};
    std::atomic<std::uint64_t> none{0};
  };

  void accept_loop();
  void shard_loop(Shard& shard);
  void wake(Shard& shard);

  /// Non-blocking read into rbuf (bounded per wakeup); returns after a
  /// recv that did not fill its buffer, since level-triggered readiness
  /// re-fires for anything that arrives later.  Sets peer_eof on EOF or a
  /// hard socket error.
  void read_into(Conn& conn);
  /// Decode + handle every complete frame currently buffered (in windows
  /// of max_pipeline), appending responses to wbuf.
  void process_frames(Shard& shard, Conn& conn);
  /// Handle one pipelined window: parse all payloads (views into rbuf),
  /// run every query in one predict_batch_into, and encode each response
  /// frame straight into wbuf in request order.  A throw from
  /// predict_batch_into answers the window's predict/batch frames with
  /// code-500 errors.
  void handle_window(Shard& shard, Conn& conn,
                     std::span<const std::string_view> payloads);
  /// The stats-op payload: ServeMetrics flat JSON extended with nested
  /// "windows" (1s/10s/60s merged across shards), "sources" and "drift".
  [[nodiscard]] std::string stats_json();
  /// Classify one batch slice into the source mix + donor histogram.
  void record_prediction_quality(const PredictorSnapshot& snapshot,
                                 std::span<const Prediction> slice);
  /// Non-blocking flush of wbuf; returns false when the connection died.
  [[nodiscard]] bool flush(Conn& conn);
  void update_interest(Shard& shard, Conn& conn);
  void close_conn(Shard& shard, int fd);
  /// stop() path: final read drain, process buffered frames, flush
  /// everything, close all connections.
  void drain_shard(Shard& shard);

  SnapshotSource* source_;
  QueryEngine* engine_;
  ServerConfig config_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_ = 0;  ///< acceptor-thread only
  std::atomic<bool> running_{false};

  std::atomic<std::size_t> inflight_{0};  ///< open connections

  /// Canonical metric store; the references below are the hot-path handles
  /// (get-or-create once, O(1) relaxed atomics afterwards).  Declared after
  /// registry_ so construction order is safe.
  obs::MetricsRegistry registry_;
  obs::Counter& c_connections_;
  obs::Counter& c_requests_;
  obs::Counter& c_predictions_;
  obs::Counter& c_errors_;
  obs::Counter& c_rejected_overload_;
  obs::Counter& c_malformed_frames_;
  obs::Counter& c_oversized_frames_;
  /// accept() failures while running (descriptor exhaustion, aborted
  /// handshakes); the accept loop retries after each one.
  obs::Counter& c_accept_errors_;
  obs::Histogram& h_latency_;
  /// Cumulative fallback-source counters (the per-snapshot mix is in
  /// mix_); "none" counts failed predictions with no source at all.
  obs::Counter& c_source_exact_;
  obs::Counter& c_source_nearest_;
  obs::Counter& c_source_model_;
  /// |log2(donor_ranks / requested_ranks)| of every nearest-donor answer —
  /// the log-scale distance the donor search minimizes; a drifting
  /// distribution means the database is thinning around the query mix.
  obs::Histogram& h_donor_distance_;

  /// One rolling-window set per shard, index-aligned with shards_.  Sized
  /// once in the constructor; never resized while threads run.
  std::vector<std::unique_ptr<ShardWindows>> windows_;
  SlowLog slowlog_;
  SourceMix mix_;
  std::mutex mix_mutex_;  ///< serializes the reset-on-new-version path

  std::chrono::steady_clock::time_point start_time_{};
  std::atomic<bool> started_{false};
};

}  // namespace kcoup::serve

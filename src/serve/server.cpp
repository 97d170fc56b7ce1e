#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include <cmath>

#include "obs/prom.hpp"
#include "serve/protocol.hpp"
#include "support/num_format.hpp"

namespace kcoup::serve {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Monotonic second count for the rolling windows: steady_clock, so a
/// wall-clock step can never smear or duplicate a window slot.
std::int64_t steady_now_s() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kReadChunk = 64 * 1024;
/// Fairness bound: one connection cannot monopolize its shard by streaming
/// faster than the loop can process.  Level-triggered readiness re-fires
/// for whatever is left in the socket buffer.
constexpr std::size_t kMaxReadPerWakeup = 1 << 20;
/// Backpressure: stop reading requests from a connection whose peer is not
/// draining its responses.
constexpr std::size_t kWriteHighWatermark = 4 << 20;
/// Pause between accept() retries after a resource error, so an exhausted
/// descriptor table is not hammered while connections drain.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

}  // namespace

Server::Server(SnapshotSource* source, QueryEngine* engine,
               ServerConfig config)
    : source_(source),
      engine_(engine),
      config_(std::move(config)),
      c_connections_(registry_.counter("serve.connections")),
      c_requests_(registry_.counter("serve.requests")),
      c_predictions_(registry_.counter("serve.predictions")),
      c_errors_(registry_.counter("serve.errors")),
      c_rejected_overload_(registry_.counter("serve.rejected_overload")),
      c_malformed_frames_(registry_.counter("serve.malformed_frames")),
      c_oversized_frames_(registry_.counter("serve.oversized_frames")),
      c_accept_errors_(registry_.counter("serve.accept_errors")),
      h_latency_(registry_.histogram("serve.request_seconds")),
      c_source_exact_(registry_.counter("serve.source.exact")),
      c_source_nearest_(registry_.counter("serve.source.nearest_donor")),
      c_source_model_(registry_.counter("serve.source.model")),
      h_donor_distance_(registry_.histogram("serve.donor.rank_distance")),
      slowlog_(config_.slowlog_slowest, config_.slowlog_failed) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_inflight == 0) config_.max_inflight = 2 * config_.workers;
  if (config_.max_pipeline == 0) config_.max_pipeline = 1;
  windows_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    windows_.push_back(std::make_unique<ShardWindows>());
  }
}

Server::~Server() { stop(); }

namespace {

// Out of line and cold, so the check leaves the compiler's inlining of
// this file's request path as it was.
[[noreturn, gnu::cold, gnu::noinline]] void refuse_port(int port) {
  throw BindError("serve: port " + std::to_string(port) +
                  " is outside [0, 65535]");
}

}  // namespace

void Server::start() {
  if (listen_fd_ >= 0) return;
  if (config_.port < 0 || config_.port > 65535) refuse_port(config_.port);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw BindError("serve: cannot create socket: " +
                    std::string(std::strerror(errno)));
  }
  const int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw BindError("serve: invalid host '" + config_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw BindError("serve: cannot bind " + config_.host + ":" +
                    std::to_string(config_.port) + ": " + why);
  }
  if (::listen(fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw BindError("serve: cannot listen on " + config_.host + ":" +
                    std::to_string(config_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw BindError("serve: getsockname failed: " + why);
  }
  port_ = ntohs(bound.sin_port);

  next_shard_ = 0;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto shard = std::make_unique<Shard>(config_.force_poll);
    shard->index = i;
    int pipefd[2] = {-1, -1};
    if (::pipe(pipefd) != 0 || !set_nonblocking(pipefd[0]) ||
        !set_nonblocking(pipefd[1])) {
      const std::string why = std::strerror(errno);
      if (pipefd[0] >= 0) ::close(pipefd[0]);
      if (pipefd[1] >= 0) ::close(pipefd[1]);
      for (auto& s : shards_) {
        ::close(s->wake_rd);
        ::close(s->wake_wr);
      }
      shards_.clear();
      ::close(fd);
      throw BindError("serve: cannot create wake pipe: " + why);
    }
    shard->wake_rd = pipefd[0];
    shard->wake_wr = pipefd[1];
    shard->poller.add(shard->wake_rd, true, false);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { shard_loop(*s); });
  }

  listen_fd_ = fd;
  start_time_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (listen_fd_ < 0) return;
  running_.store(false, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  // The acceptor is gone, so the shard inboxes are final.  Each shard
  // drains on its own thread: one last read of already-arrived bytes,
  // process every buffered complete frame, flush all responses, close.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stop = true;
    }
    wake(*shard);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    ::close(shard->wake_rd);
    ::close(shard->wake_wr);
  }
  shards_.clear();
  listen_fd_ = -1;
}

void Server::wake(Shard& shard) {
  const char byte = 1;
  // EAGAIN means a wakeup is already pending, which is just as good.
  [[maybe_unused]] const ssize_t n = ::write(shard.wake_wr, &byte, 1);
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (!running_.load(std::memory_order_acquire)) return;  // stop()
      if (err == EINTR) continue;
      // The listener stays open until stop(), so the failure concerns the
      // pending connection or the process: ECONNABORTED means the peer
      // gave up while queued, and descriptor or memory exhaustion
      // (EMFILE, ENFILE, ENOBUFS, ENOMEM) clears only as connections
      // close.  Either way keep accepting; never leave the server up but
      // deaf.
      c_accept_errors_.add(1);
      if (err != ECONNABORTED) std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    c_connections_.add(1);
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        config_.max_inflight) {
      // Fast reject without touching the shards: one best-effort error
      // frame, then close.  The send is non-blocking, so a peer that never
      // reads cannot stall the accept loop.
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      c_rejected_overload_.add(1);
      (void)send_frame_best_effort(
          fd, error_json("server overloaded, retry later", 429));
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      ::close(fd);
      continue;
    }
    const int yes = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
    Shard& shard = *shards_[next_shard_++ % shards_.size()];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.incoming.push_back(fd);
    }
    wake(shard);
  }
}

void Server::shard_loop(Shard& shard) {
  std::vector<Poller::Event> events;
  for (;;) {
    shard.poller.wait(&events, -1);
    bool wakeup = false;
    for (const Poller::Event& event : events) {
      if (event.fd == shard.wake_rd) {
        wakeup = true;
        continue;
      }
      auto it = shard.conns.find(event.fd);
      if (it == shard.conns.end()) continue;
      Conn& conn = it->second;
      if ((event.readable || event.hangup) && !conn.close_after_flush) {
        read_into(conn);
        process_frames(shard, conn);
      }
      if (!flush(conn)) {
        close_conn(shard, event.fd);
        continue;
      }
      const bool flushed = conn.wpos == conn.wbuf.size();
      if (flushed && (conn.close_after_flush || conn.peer_eof)) {
        // peer_eof: whatever remains in rbuf is a frame that can never
        // complete, so there is nothing left to answer.
        close_conn(shard, event.fd);
        continue;
      }
      update_interest(shard, conn);
    }
    if (wakeup) {
      char buf[256];
      while (::read(shard.wake_rd, buf, sizeof(buf)) > 0) {
      }
      std::vector<int> fresh;
      bool stop_requested = false;
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        fresh.swap(shard.incoming);
        stop_requested = shard.stop;
      }
      for (int fd : fresh) {
        Conn conn;
        conn.fd = fd;
        shard.conns.emplace(fd, std::move(conn));
        shard.poller.add(fd, true, false);
      }
      if (stop_requested) {
        drain_shard(shard);
        return;
      }
    }
  }
}

void Server::read_into(Conn& conn) {
  char buf[kReadChunk];
  std::size_t total = 0;
  while (total < kMaxReadPerWakeup) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      // A short read drained the socket; asking again would only hear
      // EAGAIN.  Bytes arriving later make the fd readable again.
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn.peer_eof = true;  // hard socket error: treat like a hangup
    return;
  }
}

void Server::process_frames(Shard& shard, Conn& conn) {
  // Views into rbuf, which stays untouched until every window is handled.
  // Shard-thread owned, so it stops allocating once grown.
  thread_local std::vector<std::string_view> window;
  for (;;) {
    window.clear();
    FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
    while (window.size() < config_.max_pipeline) {
      std::string_view payload;
      status = decode_frame(conn.rbuf, &conn.rpos, config_.max_frame_bytes,
                            &payload);
      if (status != FrameDecodeStatus::kFrame) break;
      window.push_back(payload);
    }
    // Frames ahead of a framing error still get their answers; the error
    // frame goes out last and the connection closes once it is flushed
    // (the length prefix cannot be trusted to resynchronize the stream).
    if (!window.empty()) handle_window(shard, conn, window);
    if (status == FrameDecodeStatus::kMalformed) {
      c_malformed_frames_.add(1);
      append_frame(conn.wbuf, error_json("malformed frame", 400));
      conn.close_after_flush = true;
      break;
    }
    if (status == FrameDecodeStatus::kOversized) {
      c_oversized_frames_.add(1);
      append_frame(
          conn.wbuf,
          error_json("frame exceeds " +
                         std::to_string(config_.max_frame_bytes) + " bytes",
                     413));
      conn.close_after_flush = true;
      break;
    }
    if (status != FrameDecodeStatus::kFrame) break;  // buffer exhausted
    // Window filled to max_pipeline with bytes left over: go again.
  }
  if (conn.close_after_flush) {
    conn.rbuf.clear();
    conn.rpos = 0;
  } else if (conn.rpos > 0) {
    conn.rbuf.erase(0, conn.rpos);
    conn.rpos = 0;
  }
}

void Server::handle_window(Shard& shard, Conn& conn,
                           std::span<const std::string_view> payloads) {
  const auto t0 = std::chrono::steady_clock::now();
  ShardWindows& windows = *windows_[shard.index];

  // Parse every frame up front so the whole window's queries can share one
  // snapshot acquisition and one engine call; each frame keeps a [offset,
  // offset+count) view into the shared result vector.  The vectors belong
  // to the shard thread and are reused: each frame's Request is decoded
  // into in place and the query list is cleared, so once they have grown
  // to a window's high-water size decoding stops allocating.
  struct Frame {
    Request request;
    bool parsed = false;  ///< false: malformed, `request` unspecified
    std::size_t offset = 0;
    std::size_t count = 0;
  };
  thread_local std::vector<Frame> frames;
  thread_local std::vector<QueryKey> queries;
  if (frames.size() < payloads.size()) frames.resize(payloads.size());
  queries.clear();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Frame& frame = frames[i];
    frame.parsed = parse_request_into(payloads[i], &frame.request);
    frame.offset = 0;
    frame.count = 0;
    const Request& request = frame.request;
    if (frame.parsed && (request.op == RequestOp::kPredict ||
                         request.op == RequestOp::kBatch)) {
      frame.offset = queries.size();
      frame.count = request.queries.size();
      queries.insert(queries.end(), request.queries.begin(),
                     request.queries.end());
    }
  }

  std::shared_ptr<const PredictorSnapshot> snapshot;
  std::vector<Prediction> results;
  // Set when predict_batch threw: the window's predict/batch frames are
  // answered with it as a code-500 error, and the shard keeps serving.
  std::optional<std::string> failure;
  if (!queries.empty()) {
    snapshot = source_->current();
    if (snapshot != nullptr) {
      try {
        results = engine_->predict_batch(*snapshot, queries);
        c_predictions_.add(results.size());
      } catch (const std::exception& e) {
        failure = std::string("prediction failed: ") + e.what();
      } catch (...) {
        failure = "prediction failed";
      }
    }
  }

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    obs::ScopedSpan span("request", "serve");
    const Frame& frame = frames[i];
    // Slow-log fields gathered as the frame is handled; the Entry itself
    // is only built when would_admit() says so (its strings allocate).
    const char* op_name = "malformed";
    const std::string* source = nullptr;
    bool frame_ok = true;
    // The response is encoded straight into wbuf behind a length prefix
    // inserted once its size is known.
    const std::size_t start = conn.wbuf.size();
    if (frame.parsed && span.active() && !frame.request.trace_id.empty()) {
      span.annotate("trace_id", frame.request.trace_id);
    }
    if (!frame.parsed) {
      c_errors_.add(1);
      frame_ok = false;
      if (span.active()) span.annotate("op", "malformed");
      append_error_json(conn.wbuf, "malformed request", 400);
    } else {
      switch (frame.request.op) {
        case RequestOp::kPing:
          op_name = "ping";
          if (span.active()) span.annotate("op", "ping");
          conn.wbuf += "{\"ok\":true,\"op\":\"ping\"}";
          break;
        case RequestOp::kStats: {
          op_name = "stats";
          if (span.active()) span.annotate("op", "stats");
          conn.wbuf += stats_json();
          break;
        }
        case RequestOp::kMetrics: {
          op_name = "metrics";
          if (span.active()) span.annotate("op", "metrics");
          // The one non-JSON payload on the wire: raw Prometheus text.
          conn.wbuf += prometheus();
          break;
        }
        case RequestOp::kSlowlog: {
          op_name = "slowlog";
          if (span.active()) span.annotate("op", "slowlog");
          conn.wbuf += slowlog_.to_json();
          break;
        }
        case RequestOp::kPredict:
        case RequestOp::kBatch: {
          const bool single = frame.request.op == RequestOp::kPredict;
          op_name = single ? "predict" : "batch";
          if (span.active()) span.annotate("op", op_name);
          if (snapshot == nullptr) {
            c_errors_.add(1);
            frame_ok = false;
            append_error_json(conn.wbuf, "no snapshot loaded", 503);
            break;
          }
          if (failure.has_value()) {
            c_errors_.add(1);
            frame_ok = false;
            append_error_json(conn.wbuf, *failure, 500);
            break;
          }
          // A view, not a copy: Prediction carries four strings, and the
          // old deep copy of every batch slice was pure serialization
          // overhead.
          const std::span<const Prediction> slice(
              results.data() + frame.offset, frame.count);
          std::uint64_t failed = 0;
          std::uint64_t cache_hits = 0;
          for (const Prediction& p : slice) {
            if (!p.ok) ++failed;
            if (p.cache_hit) ++cache_hits;
          }
          if (failed != 0) c_errors_.add(failed);
          frame_ok = failed == 0;
          record_prediction_quality(*snapshot, slice);
          if (!slice.empty() && !slice.front().source.empty()) {
            source = &slice.front().source;
          }
          if (span.active()) {
            span.annotate("cache_hits", cache_hits);
            span.annotate("ok", failed == 0);
            // Fallback kind of the first answer stands in for the request:
            // a single predict has exactly one, a batch is usually
            // homogeneous.
            if (!slice.empty() && !slice.front().alpha_source.empty()) {
              span.annotate("alpha", slice.front().alpha_source);
            }
          }
          if (single && !slice.empty()) {
            append_prediction_json(conn.wbuf, slice.front());
          } else {
            append_batch_json(conn.wbuf, slice);
          }
          break;
        }
      }
      // Echo the client's trace context so its export and ours stitch into
      // one timeline.  The metrics payload is raw Prometheus text, not
      // JSON — nothing to splice into.
      if (frame.request.op != RequestOp::kMetrics) {
        splice_trace_id(conn.wbuf, start, frame.request.trace_id);
      }
    }
    prefix_frame(conn.wbuf, start);
    c_requests_.add(1);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    h_latency_.record(elapsed.count());
    const std::int64_t now_s = steady_now_s();
    windows.requests.add(now_s);
    if (!frame_ok) windows.errors.add(now_s);
    windows.latency.record(now_s, elapsed.count());
    if (slowlog_.would_admit(frame_ok, elapsed.count())) {
      SlowLog::Entry entry;
      entry.latency_s = elapsed.count();
      entry.shard = shard.index;
      entry.ok = frame_ok;
      entry.op = op_name;
      if (source != nullptr) entry.source = *source;
      if (frame.parsed) entry.trace_id = frame.request.trace_id;
      entry.request = SlowLog::truncate_request(payloads[i]);
      slowlog_.record(std::move(entry));
    }
    span.finish();
  }
}

void Server::record_prediction_quality(const PredictorSnapshot& snapshot,
                                       std::span<const Prediction> slice) {
  if (slice.empty()) return;
  if (mix_.version.load(std::memory_order_acquire) != snapshot.version()) {
    std::lock_guard<std::mutex> lock(mix_mutex_);
    if (mix_.version.load(std::memory_order_relaxed) != snapshot.version()) {
      mix_.exact.store(0, std::memory_order_relaxed);
      mix_.nearest.store(0, std::memory_order_relaxed);
      mix_.model.store(0, std::memory_order_relaxed);
      mix_.none.store(0, std::memory_order_relaxed);
      mix_.version.store(snapshot.version(), std::memory_order_release);
    }
  }
  for (const Prediction& p : slice) {
    // Donor distance is about the coupling donor, whatever the inputs tier:
    // |log2(donor_P / requested_P)|, the log-scale metric the donor search
    // itself minimizes.
    if (p.donor_ranks > 0 && p.key.ranks > 0) {
      const double distance =
          std::abs(std::log2(static_cast<double>(p.donor_ranks) /
                             static_cast<double>(p.key.ranks)));
      h_donor_distance_.record(distance);
    }
    if (p.source == "exact") {
      c_source_exact_.add(1);
      mix_.exact.fetch_add(1, std::memory_order_relaxed);
    } else if (p.source == "nearest-donor") {
      c_source_nearest_.add(1);
      mix_.nearest.fetch_add(1, std::memory_order_relaxed);
    } else if (p.source == "model") {
      c_source_model_.add(1);
      mix_.model.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Failed predictions never picked a tier.
      mix_.none.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool Server::flush(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wpos,
                             conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  if (conn.wpos != 0) {
    conn.wbuf.clear();
    conn.wpos = 0;
  }
  return true;
}

void Server::update_interest(Shard& shard, Conn& conn) {
  const std::size_t pending = conn.wbuf.size() - conn.wpos;
  const bool want_read = !conn.close_after_flush && !conn.peer_eof &&
                         pending < kWriteHighWatermark;
  const bool want_write = pending != 0;
  if (want_read != conn.reads_enabled || want_write != conn.want_write) {
    conn.reads_enabled = want_read;
    conn.want_write = want_write;
    shard.poller.modify(conn.fd, want_read, want_write);
  }
}

void Server::close_conn(Shard& shard, int fd) {
  shard.poller.remove(fd);
  ::close(fd);
  shard.conns.erase(fd);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::drain_shard(Shard& shard) {
  // Bytes that raced in just before the listener closed still count as
  // in-flight: one final opportunistic read, then no more requests.
  for (auto& [fd, conn] : shard.conns) {
    if (conn.close_after_flush) continue;
    read_into(conn);
    ::shutdown(fd, SHUT_RD);
    process_frames(shard, conn);
  }
  for (auto& [fd, conn] : shard.conns) {
    while (conn.wpos < conn.wbuf.size()) {
      if (!flush(conn)) break;
      if (conn.wpos < conn.wbuf.size()) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLOUT;
        // A peer that accepts nothing for a full second is gone; dropping
        // its responses is the only option left.
        if (::poll(&p, 1, 1000) <= 0) break;
      }
    }
    ::close(fd);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  shard.conns.clear();
}

ServeMetrics Server::metrics() const {
  ServeMetrics m;
  m.workers = config_.workers;
  m.connections = c_connections_.value();
  m.requests = c_requests_.value();
  m.predictions = c_predictions_.value();
  m.errors = c_errors_.value();
  m.rejected_overload = c_rejected_overload_.value();
  m.malformed_frames = c_malformed_frames_.value();
  m.oversized_frames = c_oversized_frames_.value();

  const CacheStats cache = engine_->cache_stats();
  m.cache_hits = cache.hits;
  m.cache_misses = cache.misses;
  m.cache_evictions = cache.evictions;
  m.cache_size = cache.size;

  m.snapshot_reloads = source_->reloads();
  m.snapshot_reload_failures = source_->reload_failures();
  if (const auto snapshot = source_->current()) {
    m.snapshot_version = snapshot->version();
    m.db_records = snapshot->database().records().size();
  }

  if (started_.load(std::memory_order_acquire)) {
    m.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_time_)
                     .count();
  }

  const support::LatencyHistogram merged = h_latency_.snapshot();
  m.latency_count = merged.count();
  if (merged.count() != 0) {
    m.latency_p50_s = merged.quantile(0.50);
    m.latency_p95_s = merged.quantile(0.95);
    m.latency_p99_s = merged.quantile(0.99);
    m.latency_mean_s = merged.mean();
    m.latency_max_s = merged.max();
  }
  return m;
}

namespace {

/// One rolling-window object: {"requests":..,"errors":..,"rps":..,
/// "error_rate":..,"p50_s":..,"p95_s":..,"p99_s":..}.
void append_window_json(std::string& out, std::uint64_t requests,
                        std::uint64_t errors, std::int64_t window_s,
                        const support::LatencyHistogram& latency) {
  out += "{\"requests\":" + std::to_string(requests);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"rps\":" + support::format_double(
                           static_cast<double>(requests) /
                           static_cast<double>(window_s));
  const double error_rate =
      requests == 0 ? 0.0
                    : static_cast<double>(errors) / static_cast<double>(requests);
  out += ",\"error_rate\":" + support::format_double(error_rate);
  const bool have = latency.count() != 0;
  out += ",\"p50_s\":" + support::format_double(have ? latency.quantile(0.50) : 0.0);
  out += ",\"p95_s\":" + support::format_double(have ? latency.quantile(0.95) : 0.0);
  out += ",\"p99_s\":" + support::format_double(have ? latency.quantile(0.99) : 0.0);
  out += '}';
}

}  // namespace

std::string Server::stats_json() {
  std::string out = metrics().to_jsonl();
  while (!out.empty() && out.back() == '\n') out.pop_back();
  if (!out.empty() && out.back() == '}') out.pop_back();

  // Rolling windows, merged across every shard at one shared now_s so the
  // three windows are nested views of the same instant.
  const std::int64_t now_s = steady_now_s();
  static constexpr std::int64_t kWindows[] = {1, 10, 60};
  static constexpr const char* kWindowNames[] = {"1s", "10s", "60s"};
  out += ",\"windows\":{";
  for (std::size_t w = 0; w < 3; ++w) {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    support::LatencyHistogram latency;
    for (const auto& shard_windows : windows_) {
      requests += shard_windows->requests.sum(now_s, kWindows[w]);
      errors += shard_windows->errors.sum(now_s, kWindows[w]);
      shard_windows->latency.collect(now_s, kWindows[w], &latency);
    }
    if (w != 0) out += ',';
    out += '"';
    out += kWindowNames[w];
    out += "\":";
    append_window_json(out, requests, errors, kWindows[w], latency);
  }
  out += '}';

  out += ",\"sources\":{\"snapshot_version\":" +
         std::to_string(mix_.version.load(std::memory_order_acquire));
  out += ",\"exact\":" +
         std::to_string(mix_.exact.load(std::memory_order_relaxed));
  out += ",\"nearest_donor\":" +
         std::to_string(mix_.nearest.load(std::memory_order_relaxed));
  out += ",\"model\":" +
         std::to_string(mix_.model.load(std::memory_order_relaxed));
  out += ",\"none\":" +
         std::to_string(mix_.none.load(std::memory_order_relaxed));
  out += '}';

  out += ",\"drift\":";
  if (const auto drift = source_->last_drift()) {
    out += drift->to_json();
  } else {
    out += "null";
  }
  out += '}';
  return out;
}

std::string Server::prometheus() {
  // Sync derived values into the registry so the exposition is
  // self-contained; everything below is deterministic given the metric
  // state, and render_prometheus is a name-sorted bit-exact render.
  if (started_.load(std::memory_order_acquire)) {
    registry_.gauge("serve.uptime_seconds")
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_time_)
                 .count());
  }
  obs::export_tracer_metrics(registry_);
  const CacheStats cache = engine_->cache_stats();
  registry_.gauge("serve.cache.hits").set(static_cast<double>(cache.hits));
  registry_.gauge("serve.cache.misses")
      .set(static_cast<double>(cache.misses));
  registry_.gauge("serve.snapshot.reloads")
      .set(static_cast<double>(source_->reloads()));
  registry_.gauge("serve.snapshot.reload_failures")
      .set(static_cast<double>(source_->reload_failures()));
  if (const auto snapshot = source_->current()) {
    registry_.gauge("serve.snapshot.version")
        .set(static_cast<double>(snapshot->version()));
  }
  if (const auto drift = source_->last_drift()) {
    registry_.gauge("serve.drift.p50").set(drift->p50);
    registry_.gauge("serve.drift.p95").set(drift->p95);
    registry_.gauge("serve.drift.max").set(drift->max);
    registry_.gauge("serve.drift.new_records")
        .set(static_cast<double>(drift->new_records));
    registry_.gauge("serve.drift.compared")
        .set(static_cast<double>(drift->compared));
  }
  return obs::render_prometheus(registry_.snapshot());
}

}  // namespace kcoup::serve

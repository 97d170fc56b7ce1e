#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"

namespace kcoup::serve {

namespace {

/// Largest response payload the client accepts, far above any response the
/// server writes.  It bounds what a peer's length prefix can make the
/// client buffer.
constexpr std::size_t kMaxResponseBytes = std::size_t{64} << 20;
/// Most bytes one recv(2) asks for.
constexpr std::size_t kRecvChunk = 64 * 1024;
/// Queued requests go out once they reach this many bytes, even before a
/// read asks for their answers, so a long burst never sits in memory whole.
constexpr std::size_t kTransmitFlushBytes = 64 * 1024;

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rx_(std::exchange(other.rx_, {})),
      rx_pos_(std::exchange(other.rx_pos_, 0)),
      tx_(std::exchange(other.tx_, {})),
      trace_id_(std::exchange(other.trace_id_, {})),
      auto_prefix_(std::exchange(other.auto_prefix_, {})),
      auto_seq_(std::exchange(other.auto_seq_, 0)),
      last_trace_id_(std::exchange(other.last_trace_id_, {})) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::exchange(other.rx_, {});
    rx_pos_ = std::exchange(other.rx_pos_, 0);
    tx_ = std::exchange(other.tx_, {});
    trace_id_ = std::exchange(other.trace_id_, {});
    auto_prefix_ = std::exchange(other.auto_prefix_, {});
    auto_seq_ = std::exchange(other.auto_seq_, 0);
    last_trace_id_ = std::exchange(other.last_trace_id_, {});
  }
  return *this;
}

void Client::connect(const std::string& host, int port) {
  close();
  if (port < 0 || port > 65535) {
    throw std::runtime_error("client: port " + std::to_string(port) +
                             " is outside [0, 65535]");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("client: cannot create socket: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("client: invalid host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + why);
  }
  fd_ = fd;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // A later connect() must neither replay this stream's received bytes nor
  // send its queued ones.
  rx_.clear();
  rx_pos_ = 0;
  tx_.clear();
}

bool Client::flush() {
  if (tx_.empty()) return true;
  const bool sent = send_all(fd_, tx_);
  tx_.clear();
  return sent;
}

std::optional<std::string> Client::read_frame() {
  std::string_view payload;
  for (;;) {
    switch (decode_frame(rx_, &rx_pos_, kMaxResponseBytes, &payload)) {
      case FrameDecodeStatus::kFrame:
        return std::string(payload);
      case FrameDecodeStatus::kNeedMore:
        break;
      case FrameDecodeStatus::kMalformed:
      case FrameDecodeStatus::kOversized:
        return std::nullopt;
    }
    // About to wait for the peer: the requests queued while buffered
    // responses were read leave now, together.
    if (!flush()) return std::nullopt;
    rx_.erase(0, rx_pos_);
    rx_pos_ = 0;
    char chunk[kRecvChunk];
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r > 0) {
      rx_.append(chunk, static_cast<std::size_t>(r));
    } else if (r == 0 || errno != EINTR) {
      return std::nullopt;
    }
  }
}

std::optional<std::string> Client::roundtrip(const std::string& payload) {
  if (fd_ < 0) return std::nullopt;
  append_frame(tx_, payload);
  if (!flush()) return std::nullopt;
  return read_frame();
}

std::optional<std::string> Client::roundtrip_raw(const std::string& bytes) {
  if (fd_ < 0) return std::nullopt;
  tx_ += bytes;  // behind any queued requests: wire order is call order
  if (!flush()) return std::nullopt;
  return read_frame();
}

bool Client::send_request(const std::string& payload) {
  if (fd_ < 0) return false;
  append_frame(tx_, payload);
  return tx_.size() < kTransmitFlushBytes || flush();
}

void Client::set_trace_id(std::string id) {
  trace_id_ = std::move(id);
  truncate_trace_id(trace_id_);
  auto_prefix_.clear();
}

void Client::auto_trace_ids(std::string prefix) {
  if (prefix.empty()) {
    prefix.append("c").append(
        std::to_string(static_cast<long long>(::getpid())));
  }
  auto_prefix_ = std::move(prefix);
  trace_id_.clear();
}

const std::string& Client::next_trace_id() {
  if (!auto_prefix_.empty()) {
    last_trace_id_ = auto_prefix_ + "-" + std::to_string(++auto_seq_);
    truncate_trace_id(last_trace_id_);
  } else {
    last_trace_id_ = trace_id_;
  }
  return last_trace_id_;
}

namespace {

/// One client-side span per typed call, annotated to pair with the
/// server-side "request" span carrying the same trace id.
void annotate_request(obs::ScopedSpan& span, const char* op,
                      const std::string& trace_id) {
  if (!span.active()) return;
  span.annotate("op", op);
  if (!trace_id.empty()) span.annotate("trace_id", trace_id);
}

}  // namespace

bool Client::ping() {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "ping", id);
  const auto response = roundtrip(ping_request(id));
  if (!response.has_value()) return false;
  const auto frame = support::json::Object::parse(*response);
  return frame.has_value() && frame->raw("ok") == "true";
}

std::optional<Prediction> Client::predict(const QueryKey& query) {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "predict", id);
  const auto response = roundtrip(predict_request(query, id));
  if (!response.has_value()) return std::nullopt;
  return parse_prediction(*response);
}

std::optional<std::vector<Prediction>> Client::predict_batch(
    const std::vector<QueryKey>& queries) {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "batch", id);
  const auto response = roundtrip(batch_request(queries, id));
  if (!response.has_value()) return std::nullopt;
  return parse_batch_response(*response);
}

std::optional<std::string> Client::stats() {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "stats", id);
  return roundtrip(stats_request(id));
}

std::optional<std::string> Client::metrics() {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "metrics", id);
  return roundtrip(metrics_request(id));
}

std::optional<std::string> Client::slowlog() {
  const std::string& id = next_trace_id();
  obs::ScopedSpan span("request", "client");
  annotate_request(span, "slowlog", id);
  return roundtrip(slowlog_request(id));
}

}  // namespace kcoup::serve

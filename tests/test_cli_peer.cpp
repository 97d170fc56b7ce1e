// `kcoup stats` and `kcoup top` against a fake peer.  A stats frame whose
// integer fields do not fit their types (a negative count, 1e300) must be
// refused as a malformed response with exit 1, not printed wrapped to
// 2^64 - 5 or cast out of range.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "serve/framing.hpp"

namespace {

using kcoup::serve::FrameDecodeStatus;

/// A loopback listener that answers every request frame of one connection
/// with the same reply.
class FakePeer {
 public:
  explicit FakePeer(std::string reply) : reply_(std::move(reply)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(fd_, 1) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "cannot listen on loopback";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { answer(); });
  }

  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  ~FakePeer() {
    ::shutdown(fd_, SHUT_RDWR);  // wakes an accept() nobody connected to
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }

  [[nodiscard]] std::string port() const { return std::to_string(port_); }

 private:
  void answer() {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return;
    std::string buf;
    std::size_t pos = 0;
    std::string request;
    for (;;) {
      const FrameDecodeStatus status =
          kcoup::serve::decode_frame(buf, &pos, 1 << 20, &request);
      if (status == FrameDecodeStatus::kFrame) {
        const std::string frame = kcoup::serve::encode_frame(reply_);
        if (::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) break;
        continue;
      }
      if (status != FrameDecodeStatus::kNeedMore) break;
      char chunk[4096];
      const ssize_t r = ::recv(conn, chunk, sizeof(chunk), 0);
      if (r <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(r));
    }
    ::close(conn);
  }

  std::string reply_;
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

struct Outcome {
  int rc = -1;
  std::string output;  ///< stdout and stderr
};

Outcome run_kcoup(const std::string& args) {
  const std::string command = std::string(KCOUP_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  Outcome out;
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  out.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(CliPeerTest, StatsRefusesIntegersThatDoNotFit) {
  for (const char* frame :
       {R"({"ok":true,"requests":-5})", R"({"ok":true,"requests":1e300})",
        R"({"ok":true,"cache_size":-1})"}) {
    FakePeer peer(frame);
    const Outcome r = run_kcoup("stats --port " + peer.port());
    EXPECT_EQ(r.rc, 1) << frame << "\n" << r.output;
    EXPECT_EQ(r.output,
              "kcoup stats: malformed response from 127.0.0.1:" + peer.port() +
                  "\n")
        << frame;
  }
}

TEST(CliPeerTest, StatsRendersAFrameThatFits) {
  FakePeer peer(R"({"ok":true,"workers":2,"requests":5,"uptime_s":1.5})");
  const Outcome r = run_kcoup("stats --port " + peer.port());
  EXPECT_EQ(r.rc, 0) << r.output;
  EXPECT_NE(r.output.find("Serve metrics"), std::string::npos) << r.output;
}

TEST(CliPeerTest, TopRefusesWindowCountsThatDoNotFit) {
  for (const char* frame :
       {R"({"ok":true,"windows":{"1s":{"requests":-5}}})",
        R"({"ok":true,"windows":{"10s":{"errors":1e300}}})"}) {
    FakePeer peer(frame);
    const Outcome r = run_kcoup("top --count 1 --port " + peer.port());
    EXPECT_EQ(r.rc, 1) << frame << "\n" << r.output;
    EXPECT_NE(r.output.find("kcoup top: malformed response from 127.0.0.1:" +
                            peer.port() + "\n"),
              std::string::npos)
        << frame << "\n" << r.output;
  }
}

}  // namespace

#pragma once

#include <cstddef>
#include <vector>

#if defined(__linux__)
#define KCOUP_HAVE_EPOLL 1
#else
#define KCOUP_HAVE_EPOLL 0
#endif

namespace kcoup::serve {

/// Readiness notification for one event-loop shard: epoll(7) where the
/// platform has it, poll(2) everywhere (and on demand for tests, so the
/// fallback stays exercised on Linux too).  Level-triggered in both
/// backends — a connection with unread bytes or an unflushed write buffer
/// keeps firing until the shard drains it, which is the simplest contract
/// that can never lose a wakeup.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Peer hangup or socket error: the shard should still read (there may
    /// be buffered bytes ahead of the EOF) and then close.
    bool hangup = false;
  };

  /// force_poll selects the poll(2) backend even where epoll is available.
  explicit Poller(bool force_poll = false);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to timeout_ms (-1 = forever) and append ready events to
  /// *out (cleared first).  Returns the number of events; 0 on timeout.
  /// EINTR is retried internally.
  std::size_t wait(std::vector<Event>* out, int timeout_ms);

 private:
  int epoll_fd_ = -1;  ///< -1 = poll(2) backend
  /// poll(2) backend state: the registered interest set.
  struct Interest {
    int fd;
    bool want_read;
    bool want_write;
  };
  std::vector<Interest> interests_;
};

}  // namespace kcoup::serve

#include "serve/framing.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <charconv>
#include <limits>

namespace kcoup::serve {

namespace {

constexpr std::size_t kMaxLengthDigits = 20;

/// Accumulate one ASCII digit into a length.  False when c is not a digit
/// or the new value would wrap.
bool accumulate_length_digit(std::size_t* length, char c) {
  if (c < '0' || c > '9') return false;
  const auto digit = static_cast<std::size_t>(c - '0');
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (*length > (kMax - digit) / 10) return false;  // would wrap
  *length = *length * 10 + digit;
  return true;
}

/// "<length>\n" into buf, which holds 21 bytes; returns one past its end.
char* write_length_prefix(char* buf, std::size_t length) {
  char* const end = std::to_chars(buf, buf + kMaxLengthDigits, length).ptr;
  *end = '\n';
  return end + 1;
}

}  // namespace

FrameDecodeStatus decode_frame(std::string_view buf, std::size_t* pos,
                               std::size_t max_payload,
                               std::string_view* payload) {
  std::size_t i = *pos;
  std::size_t length = 0;
  std::size_t digits = 0;
  for (;; ++i) {
    if (i >= buf.size()) return FrameDecodeStatus::kNeedMore;
    const char c = buf[i];
    if (c == '\n') {
      if (digits == 0) return FrameDecodeStatus::kMalformed;
      break;
    }
    if (digits >= kMaxLengthDigits || !accumulate_length_digit(&length, c)) {
      return FrameDecodeStatus::kMalformed;
    }
    ++digits;
  }
  if (length > max_payload) return FrameDecodeStatus::kOversized;
  const std::size_t body = i + 1;
  if (buf.size() - body < length) return FrameDecodeStatus::kNeedMore;
  *payload = buf.substr(body, length);
  *pos = body + length;
  return FrameDecodeStatus::kFrame;
}

FrameDecodeStatus decode_frame(const std::string& buf, std::size_t* pos,
                               std::size_t max_payload, std::string* payload) {
  std::string_view view;
  const FrameDecodeStatus status =
      decode_frame(std::string_view(buf), pos, max_payload, &view);
  if (status == FrameDecodeStatus::kFrame) payload->assign(view);
  return status;
}

void append_frame(std::string& out, std::string_view payload) {
  char prefix[kMaxLengthDigits + 1];
  out.append(prefix, write_length_prefix(prefix, payload.size()));
  out += payload;
}

void prefix_frame(std::string& out, std::size_t start) {
  char prefix[kMaxLengthDigits + 1];
  const char* const end = write_length_prefix(prefix, out.size() - start);
  out.insert(start, prefix, static_cast<std::size_t>(end - prefix));
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  append_frame(out, payload);
  return out;
}

bool send_frame_best_effort(int fd, const std::string& payload) {
  const std::string frame = encode_frame(payload);
  const ssize_t n = ::send(fd, frame.data(), frame.size(),
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  return n >= 0 && static_cast<std::size_t>(n) == frame.size();
}

}  // namespace kcoup::serve

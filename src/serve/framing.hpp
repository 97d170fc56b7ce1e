#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace kcoup::serve {

/// Incremental decoding of the wire framing (see protocol.hpp): a frame is
/// the payload byte count in ASCII decimal, '\n', then exactly that many
/// payload bytes.  decode_frame() works over an append-only buffer, so the
/// event-driven server can feed it whatever recv() returned and pull out
/// every complete frame without ever blocking on a partial one.  The
/// blocking client reads its responses through the same decoder, so both
/// sides of the wire enforce one hardened length rule.

enum class FrameDecodeStatus {
  kNeedMore,   ///< no complete frame in the buffer yet
  kFrame,      ///< one frame decoded, *pos advanced past it
  kMalformed,  ///< non-digit length byte, empty length, >20 digits, or a
               ///< length whose decimal value overflows std::size_t
  kOversized,  ///< well-formed length larger than max_payload
};

/// Try to decode one frame from buf starting at *pos.  On kFrame *payload
/// views the payload inside buf (valid while buf is unchanged) and *pos
/// advances past the frame; on kNeedMore nothing moves (call again once
/// more bytes arrive); kMalformed/kOversized are terminal for the stream —
/// the length prefix cannot be trusted to resynchronize after either.
///
/// The length parser is hardened against overflow: up to 20 digits are
/// accepted (enough for any 64-bit value), but an accumulation that would
/// wrap std::size_t — e.g. the 20-digit "99999999999999999999" — is
/// kMalformed, never a silently small length that would desynchronize the
/// stream.
[[nodiscard]] FrameDecodeStatus decode_frame(std::string_view buf,
                                             std::size_t* pos,
                                             std::size_t max_payload,
                                             std::string_view* payload);
/// decode_frame with the payload copied into *payload.
[[nodiscard]] FrameDecodeStatus decode_frame(const std::string& buf,
                                             std::size_t* pos,
                                             std::size_t max_payload,
                                             std::string* payload);

/// Append one frame, length + '\n' + payload, to `out`.
void append_frame(std::string& out, std::string_view payload);
/// Turn the payload already written from out[start] to the end of `out`
/// into a frame by inserting its length prefix at `start` — how a response
/// encoded straight into a write buffer is framed.
void prefix_frame(std::string& out, std::size_t start);
/// append_frame into a new string, ready to send.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Send one frame with a single non-blocking send(2) and give up on
/// EAGAIN/EWOULDBLOCK or a short write instead of blocking the caller.
/// Used for the accept-time 429 overload reject: a stalled or slow peer
/// being rejected must never halt the accept loop; dropping the courtesy
/// frame is fine — the peer sees the close either way.  Returns true when
/// the whole frame was sent.
bool send_frame_best_effort(int fd, const std::string& payload);

}  // namespace kcoup::serve

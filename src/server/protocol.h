// muved wire protocol: length-prefixed JSON frames over TCP.
//
// Frame layout (both directions):
//
//   +----------------+----------------------+
//   | 4 bytes, big-  | N bytes of UTF-8     |
//   | endian uint32 N| JSON (one object)    |
//   +----------------+----------------------+
//
// N must be in [1, kMaxFrameBytes].  Requests are objects with an "op"
// field ("ping", "use", "defaults", "recommend", "shutdown" — see
// README "muved" for the full field tables); responses always carry
// "ok" (bool) and echo "op".  Errors are
//
//   {"ok":false,"error":{"code":"<StatusCodeName>",
//                        "exit_code":<ExitCodeForStatus>,
//                        "message":"..."}}
//
// — the same typed-code table muve_cli exits with, so a scripted client
// can branch on cause identically over the wire and at the shell.
//
// This header also carries the blocking socket helpers both muved and
// the muve_loadgen client use.  All I/O loops over EINTR; a frame read
// distinguishes clean EOF (kNotFound — peer closed between frames) from
// a truncated frame or oversized length (kParseError / kIoError).  Reads
// and writes optionally take poll()-based timeouts (FrameTimeouts /
// timeout_ms) so a stalled or never-reading peer surfaces as
// kDeadlineExceeded instead of pinning the calling thread forever.

#ifndef MUVE_SERVER_PROTOCOL_H_
#define MUVE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/json.h"

namespace muve::server {

// Hard cap on one frame's payload: large enough for any recommendation
// response, small enough that a hostile length prefix cannot make the
// server allocate gigabytes.
constexpr uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

// Read-side timeout policy for one frame (0 = no limit on that phase).
//
//   idle_ms  — how long the peer may stay silent BETWEEN frames: the
//              budget for the frame's first byte to arrive.  A quiet but
//              healthy session trips this, so servers usually set it
//              much higher than frame_ms.
//   frame_ms — once the first byte has arrived, the budget for the REST
//              of the frame (header remainder + body).  This is the
//              anti-slowloris bound: a peer trickling one byte per poll
//              interval still has to land the whole frame inside one
//              frame_ms window, so a stalled or drip-feeding client is
//              disconnected in bounded time.
struct FrameTimeouts {
  int idle_ms = 0;
  int frame_ms = 0;
};

// Which read-timeout phase fired (out-param of the timeout-aware
// ReadFrame), so callers can count idle disconnects apart from
// mid-frame (slowloris) disconnects.
enum class FrameTimeoutKind { kNone, kIdle, kMidFrame };

// Reads exactly one frame's payload from `fd` into `*payload`.
//   kNotFound         — clean EOF before any length byte (peer hung up).
//   kParseError       — length prefix of 0 or > kMaxFrameBytes (the
//                       connection cannot be resynchronized afterwards).
//   kIoError          — read error or EOF mid-frame.
//   kDeadlineExceeded — a FrameTimeouts phase expired (`*timed_out` says
//                       which); the frame is torn, so the connection
//                       should be dropped.
common::Status ReadFrame(int fd, std::string* payload);
common::Status ReadFrame(int fd, std::string* payload,
                         const FrameTimeouts& timeouts,
                         FrameTimeoutKind* timed_out = nullptr);

// Writes one frame (length prefix + payload) with a single sendmsg()
// over two iovecs, resuming partial writes.  kInvalidArgument when the
// payload exceeds kMaxFrameBytes; kIoError on short/failed writes;
// kDeadlineExceeded when `timeout_ms` > 0 and the peer would not accept
// the whole frame within it (a never-reading peer with a full socket
// buffer must not pin a handler thread).
common::Status WriteFrame(int fd, std::string_view payload,
                          int timeout_ms = 0);

// Convenience: WriteFrame(message.Write()).
common::Status WriteMessage(int fd, const JsonValue& message,
                            int timeout_ms = 0);

// Builds the protocol's error response for `status` (see header comment).
JsonValue ErrorResponse(const common::Status& status);

// The overload-shed error frame: ErrorResponse(status) with an
// additional `error.retry_after_ms` hint — the server's suggestion for
// how long a well-behaved client should back off before retrying
// (recommends are idempotent and result-cached, so retrying is safe).
JsonValue OverloadedResponse(const common::Status& status,
                             int64_t retry_after_ms);

// Builds an ok response skeleton {"ok":true,"op":<op>}.
JsonValue OkResponse(std::string_view op);

// Sets TCP_NODELAY on a connected socket (best effort).  Both ends of a
// muved connection set it: with Nagle on, a response that follows the
// peer's un-ACKed request waits out the delayed-ACK timer (~40 ms).
void SetTcpNoDelay(int fd);

// Client-side: connects to 127.0.0.1:`port` (muved binds loopback only)
// with TCP_NODELAY set, returning the connected fd.  The caller
// owns/closes it.
common::Result<int> DialLocal(int port);

// One blocking request/response exchange on an open connection.
common::Result<JsonValue> RoundTrip(int fd, const JsonValue& request);

}  // namespace muve::server

#endif  // MUVE_SERVER_PROTOCOL_H_

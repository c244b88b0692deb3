#include "server/protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>

namespace muve::server {

namespace {

using common::Result;
using common::Status;

using Clock = std::chrono::steady_clock;

// "No deadline" sentinel for the poll helpers below.
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

Clock::time_point DeadlineAfterMs(int ms) {
  return ms > 0 ? Clock::now() + std::chrono::milliseconds(ms) : kNoDeadline;
}

// Waits until `fd` is ready for `events` or `deadline` passes.
// Returns 1 ready, 0 deadline expired, -1 poll error (errno set).
int PollUntil(int fd, short events, Clock::time_point deadline) {
  while (true) {
    int timeout_ms = -1;
    if (deadline != kNoDeadline) {
      const int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                Clock::now())
              .count();
      if (remaining_ms <= 0) return 0;
      timeout_ms = static_cast<int>(std::min<int64_t>(
          remaining_ms, std::numeric_limits<int>::max()));
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return 1;  // readable/writable, error, or hangup — the
                           // following read()/send() reports which
    if (rc == 0) {
      if (deadline == kNoDeadline) continue;  // cannot happen (timeout -1)
      return 0;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

// read() the full `count` bytes, looping over EINTR and short reads.
// Returns bytes read (== count), 0 on immediate clean EOF, -1 on error;
// `*eof_mid_read` distinguishes EOF after partial data, `*timed_out`
// (when a deadline is set) a deadline expiring before the data arrived.
ssize_t ReadFull(int fd, char* buf, size_t count, Clock::time_point deadline,
                 bool* eof_mid_read, bool* timed_out) {
  size_t done = 0;
  *eof_mid_read = false;
  if (timed_out != nullptr) *timed_out = false;
  while (done < count) {
    if (deadline != kNoDeadline) {
      const int ready = PollUntil(fd, POLLIN, deadline);
      if (ready == 0) {
        if (timed_out != nullptr) *timed_out = true;
        return static_cast<ssize_t>(done);
      }
      if (ready < 0) return -1;
    }
    const ssize_t n = ::read(fd, buf + done, count - done);
    if (n == 0) {
      if (done > 0) *eof_mid_read = true;
      return static_cast<ssize_t>(done);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// Sends every byte of the `count` buffers in `iov` with sendmsg(), so a
// frame's header and payload leave in one call and (normally) one
// segment.  Two send() calls would let Nagle's algorithm hold the
// payload back until the peer's delayed ACK of the header, a ~40 ms
// stall per frame.  Partial sends resume mid-buffer: `iov` is advanced
// in place.
Status WriteFull(int fd, struct iovec* iov, size_t count,
                 Clock::time_point deadline) {
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += iov[i].iov_len;
  size_t done = 0;
  // With a deadline the send is non-blocking (MSG_DONTWAIT) and a full
  // socket buffer parks us in poll(POLLOUT) with the remaining budget —
  // a peer that never reads its responses cannot pin this thread past
  // the deadline.  Without one, the classic blocking send.
  const int extra_flags = deadline != kNoDeadline ? MSG_DONTWAIT : 0;
  while (done < total) {
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL, never write(): a peer that disconnects before its
    // response lands must surface as EPIPE on THIS connection, not raise
    // SIGPIPE and kill the whole daemon with default disposition.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | extra_flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
          deadline != kNoDeadline) {
        const int ready = PollUntil(fd, POLLOUT, deadline);
        if (ready == 0) {
          return Status::DeadlineExceeded(
              "frame write timed out after " + std::to_string(done) + " of " +
              std::to_string(total) + " bytes (peer not reading)");
        }
        if (ready > 0) continue;
      }
      return Status::IoError(std::string("frame write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
    for (size_t sent = static_cast<size_t>(n); sent > 0;) {
      const size_t step = std::min(sent, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      sent -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload) {
  return ReadFrame(fd, payload, FrameTimeouts{}, nullptr);
}

Status ReadFrame(int fd, std::string* payload, const FrameTimeouts& timeouts,
                 FrameTimeoutKind* timed_out) {
  if (timed_out != nullptr) *timed_out = FrameTimeoutKind::kNone;
  unsigned char header[4];
  bool eof_mid_read = false;
  bool phase_timed_out = false;

  // Phase 1 — idle: wait up to idle_ms for the frame's FIRST byte.  A
  // peer sitting quietly between requests only ever trips this phase.
  const ssize_t first =
      ReadFull(fd, reinterpret_cast<char*>(header), 1,
               DeadlineAfterMs(timeouts.idle_ms), &eof_mid_read,
               &phase_timed_out);
  if (phase_timed_out) {
    if (timed_out != nullptr) *timed_out = FrameTimeoutKind::kIdle;
    return Status::DeadlineExceeded("idle timeout: no frame within " +
                                    std::to_string(timeouts.idle_ms) + " ms");
  }
  if (first == 0) {
    return Status::NotFound("peer closed the connection");
  }
  if (first < 0) {
    return Status::IoError(std::string("frame header read failed: ") +
                           std::strerror(errno));
  }

  // Phase 2 — mid-frame: once the first byte landed, the REST of the
  // frame (header remainder + body) must arrive within one frame_ms
  // window.  The deadline is absolute, so a slowloris peer trickling
  // bytes cannot reset it.
  const Clock::time_point frame_deadline = DeadlineAfterMs(timeouts.frame_ms);
  auto mid_frame_timeout = [&](const char* what) {
    if (timed_out != nullptr) *timed_out = FrameTimeoutKind::kMidFrame;
    return Status::DeadlineExceeded(
        std::string("frame timeout: ") + what + " incomplete after " +
        std::to_string(timeouts.frame_ms) + " ms");
  };
  const ssize_t rest =
      ReadFull(fd, reinterpret_cast<char*>(header) + 1, sizeof(header) - 1,
               frame_deadline, &eof_mid_read, &phase_timed_out);
  if (phase_timed_out) return mid_frame_timeout("header");
  if (rest < 0) {
    return Status::IoError(std::string("frame header read failed: ") +
                           std::strerror(errno));
  }
  if (rest < static_cast<ssize_t>(sizeof(header) - 1)) {
    return Status::IoError("truncated frame header");
  }
  const uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                          (static_cast<uint32_t>(header[1]) << 16) |
                          (static_cast<uint32_t>(header[2]) << 8) |
                          static_cast<uint32_t>(header[3]);
  if (length == 0 || length > kMaxFrameBytes) {
    return Status::ParseError("frame length " + std::to_string(length) +
                              " outside [1, " + std::to_string(kMaxFrameBytes) +
                              "]");
  }
  payload->resize(length);
  const ssize_t body = ReadFull(fd, payload->data(), length, frame_deadline,
                                &eof_mid_read, &phase_timed_out);
  if (phase_timed_out) return mid_frame_timeout("body");
  if (body < 0) {
    return Status::IoError(std::string("frame body read failed: ") +
                           std::strerror(errno));
  }
  if (body < static_cast<ssize_t>(length)) {
    return Status::IoError("truncated frame body (" + std::to_string(body) +
                           " of " + std::to_string(length) + " bytes)");
  }
  return Status::OK();
}

Status WriteFrame(int fd, std::string_view payload, int timeout_ms) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes outside [1, " +
                                   std::to_string(kMaxFrameBytes) + "]");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>((length >> 24) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>(length & 0xFF)};
  // One absolute deadline covers header + payload: the whole frame must
  // drain within timeout_ms, not timeout_ms per sendmsg() call.
  struct iovec iov[2];
  iov[0].iov_base = const_cast<unsigned char*>(header);
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return WriteFull(fd, iov, 2, DeadlineAfterMs(timeout_ms));
}

Status WriteMessage(int fd, const JsonValue& message, int timeout_ms) {
  return WriteFrame(fd, message.Write(), timeout_ms);
}

JsonValue ErrorResponse(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(common::StatusCodeName(status.code())));
  error.Set("exit_code",
            JsonValue::Int(common::ExitCodeForStatus(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

JsonValue OverloadedResponse(const Status& status, int64_t retry_after_ms) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(common::StatusCodeName(status.code())));
  error.Set("exit_code",
            JsonValue::Int(common::ExitCodeForStatus(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  error.Set("retry_after_ms", JsonValue::Int(retry_after_ms));
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

JsonValue OkResponse(std::string_view op) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("op", JsonValue::String(std::string(op)));
  return response;
}

void SetTcpNoDelay(int fd) {
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

Result<int> DialLocal(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect to 127.0.0.1:" + std::to_string(port) +
                           ": " + std::strerror(err));
  }
  SetTcpNoDelay(fd);
  return fd;
}

Result<JsonValue> RoundTrip(int fd, const JsonValue& request) {
  MUVE_RETURN_IF_ERROR(WriteMessage(fd, request));
  std::string payload;
  MUVE_RETURN_IF_ERROR(ReadFrame(fd, &payload));
  return ParseJson(payload);
}

}  // namespace muve::server

// Unit tests for the muved wire layer: the strict JSON document model
// (server/json.h) and the length-prefixed framing (server/protocol.h).

#include "server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "server/json.h"

namespace muve::server {
namespace {

using muve::common::StatusCode;

// ---------------------------------------------------------------------------
// JSON model.
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsCanonicalDocument) {
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("k", JsonValue::Int(5));
  doc.Set("utility", JsonValue::Double(0.25));
  doc.Set("name", JsonValue::String("nba"));
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(0.8));
  weights.Append(JsonValue::Double(0.1));
  weights.Append(JsonValue::Double(0.1));
  doc.Set("weights", std::move(weights));
  doc.Set("nothing", JsonValue::Null());

  const std::string text = doc.Write();
  EXPECT_EQ(text,
            "{\"ok\":true,\"k\":5,\"utility\":0.25,\"name\":\"nba\","
            "\"weights\":[0.8,0.1,0.1],\"nothing\":null}");

  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Canonical: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(parsed->Write(), text);
}

TEST(Json, KeepsIntDoubleDistinction) {
  auto parsed = ParseJson("{\"a\":5,\"b\":5.0,\"c\":5e0,\"d\":-0.0}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("a")->is_int());
  EXPECT_TRUE(parsed->Find("b")->is_double());
  EXPECT_TRUE(parsed->Find("c")->is_double());
  EXPECT_TRUE(parsed->Find("d")->is_double());
  EXPECT_EQ(parsed->Find("a")->int_value(), 5);
  EXPECT_DOUBLE_EQ(parsed->Find("b")->number_value(), 5.0);
  // An integer-valued double serializes with ".0" so the kind survives a
  // round trip (5 and 5.0 must not collapse).
  EXPECT_EQ(parsed->Write(), "{\"a\":5,\"b\":5.0,\"c\":5.0,\"d\":-0.0}");
}

TEST(Json, Int64OverflowIsAParseErrorNotADouble) {
  EXPECT_TRUE(ParseJson("{\"n\":9223372036854775807}").ok());
  auto overflowed = ParseJson("{\"n\":9223372036854775808}");
  EXPECT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.status().code(), StatusCode::kParseError);
}

TEST(Json, RejectsDuplicateKeys) {
  auto parsed = ParseJson("{\"k\":1,\"k\":2}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "}", "{]", "[}", "{\"a\":}", "{\"a\" 1}", "{'a':1}",
        "{\"a\":1,}", "[1,]", "{\"a\":1}x", "{\"a\":01}", "{\"a\":+1}",
        "{\"a\":NaN}", "{\"a\":Infinity}", "{\"a\":1e}", "{\"a\":.5}",
        "nul", "tru", "{\"a\":\"\\q\"}", "{\"a\":\"\\ud800\"}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(Json, NumbersFollowRfc8259NotTheLooserSharedGrammar) {
  // The shared strict parser (common/parse.h) accepts "1." and "1.e5";
  // RFC 8259 does not — frac and exp each require at least one digit.
  for (const char* bad :
       {"[1.]", "[1.e5]", "[-3.]", "[1.E2]", "[2e]", "[2e+]", "[2E-]",
        "[0.]", "[1e++2]", "[1.2.3]"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
  for (const char* good :
       {"[1.0]", "[1.0e5]", "[0.5]", "[-0.25E-2]", "[2e7]", "[1e+2]"}) {
    EXPECT_TRUE(ParseJson(good).ok()) << "rejected: " << good;
  }
}

TEST(Json, NonFiniteDoublesSerializeAsNullNotInvalidJson) {
  // "inf"/"nan" bytes would make the frame unparseable by our own strict
  // parser; null is deterministic and survives the round trip.
  JsonValue doc = JsonValue::Object();
  doc.Set("a", JsonValue::Double(std::numeric_limits<double>::infinity()));
  doc.Set("b", JsonValue::Double(-std::numeric_limits<double>::infinity()));
  doc.Set("c", JsonValue::Double(std::numeric_limits<double>::quiet_NaN()));
  doc.Set("d", JsonValue::Double(1.5));
  const std::string text = doc.Write();
  EXPECT_EQ(text, "{\"a\":null,\"b\":null,\"c\":null,\"d\":1.5}");
  EXPECT_TRUE(ParseJson(text).ok());
}

TEST(Json, DecodesEscapesAndUnicode) {
  auto parsed = ParseJson(
      "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string& s = parsed->Find("s")->string_value();
  EXPECT_EQ(s, std::string("a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(Json, DepthLimited) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(Json, FindAndSetReplace) {
  JsonValue doc = JsonValue::Object();
  doc.Set("a", JsonValue::Int(1));
  doc.Set("a", JsonValue::Int(2));  // replaces, no duplicate member
  EXPECT_EQ(doc.members().size(), 1u);
  EXPECT_EQ(doc.Find("a")->int_value(), 2);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Framing over a socketpair.
// ---------------------------------------------------------------------------

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, WriteThenReadRoundTrips) {
  ASSERT_TRUE(WriteFrame(fds_[0], "{\"op\":\"ping\"}").ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds_[1], &payload).ok());
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
}

TEST_F(FramingTest, SequentialFramesKeepBoundaries) {
  ASSERT_TRUE(WriteFrame(fds_[0], "first").ok());
  ASSERT_TRUE(WriteFrame(fds_[0], "second frame").ok());
  std::string a, b;
  ASSERT_TRUE(ReadFrame(fds_[1], &a).ok());
  ASSERT_TRUE(ReadFrame(fds_[1], &b).ok());
  EXPECT_EQ(a, "first");
  EXPECT_EQ(b, "second frame");
}

TEST_F(FramingTest, CleanEofIsNotFound) {
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string payload;
  EXPECT_EQ(ReadFrame(fds_[1], &payload).code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, TruncatedFrameIsIoError) {
  // Length prefix promises 100 bytes; only 3 arrive before EOF.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string payload;
  EXPECT_EQ(ReadFrame(fds_[1], &payload).code(), StatusCode::kIoError);
}

TEST_F(FramingTest, ZeroAndOversizedLengthsAreParseErrors) {
  const unsigned char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], zero, 4), 4);
  std::string payload;
  EXPECT_EQ(ReadFrame(fds_[1], &payload).code(), StatusCode::kParseError);

  // 0xFFFFFFFF length: far past kMaxFrameBytes.
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fds_[0], huge, 4), 4);
  EXPECT_EQ(ReadFrame(fds_[1], &payload).code(), StatusCode::kParseError);
}

TEST_F(FramingTest, RejectsOversizedOutboundPayload) {
  std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_EQ(WriteFrame(fds_[0], huge).code(), StatusCode::kInvalidArgument);
}

TEST_F(FramingTest, WriteAfterPeerCloseIsIoErrorNotSigpipe) {
  // The peer disconnects before the response is written — the canonical
  // "client gave up" race.  On an AF_UNIX pair the very first send after
  // the close hits EPIPE, so without MSG_NOSIGNAL this test would die of
  // SIGPIPE instead of failing an assertion.
  ::close(fds_[1]);
  fds_[1] = -1;
  const auto first = WriteFrame(fds_[0], "{\"op\":\"ping\"}");
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  // And again: the error is sticky per-write, never process-fatal.
  EXPECT_EQ(WriteFrame(fds_[0], "{\"op\":\"ping\"}").code(),
            StatusCode::kIoError);
}

TEST_F(FramingTest, LargeFrameSurvivesPartialReads) {
  // 1 MiB frame across a SOCK_STREAM pair exercises the read/write loops
  // (the kernel will split this into many partial transfers).
  std::string big(1 << 20, 'z');
  big[12345] = 'q';
  std::thread writer([this, &big] {
    EXPECT_TRUE(WriteFrame(fds_[0], big).ok());
  });
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds_[1], &payload).ok());
  writer.join();
  EXPECT_EQ(payload, big);
}

// ---------------------------------------------------------------------------
// Read/write timeouts (poll-based; FrameTimeouts / WriteFrame timeout_ms).
// ---------------------------------------------------------------------------

TEST_F(FramingTest, IdleTimeoutFiresBeforeFirstByte) {
  // Nothing ever arrives: the idle phase expires and reports kIdle.
  std::string payload;
  FrameTimeoutKind kind = FrameTimeoutKind::kNone;
  const auto status =
      ReadFrame(fds_[1], &payload, FrameTimeouts{/*idle_ms=*/30,
                                                 /*frame_ms=*/0},
                &kind);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(kind, FrameTimeoutKind::kIdle);
}

TEST_F(FramingTest, MidFrameTimeoutFiresOnStalledBody) {
  // The header promises 100 bytes but only 3 arrive, then the peer
  // stalls (without closing): the mid-frame deadline must cut the read
  // off and say so — this is the anti-slowloris bound.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  std::string payload;
  FrameTimeoutKind kind = FrameTimeoutKind::kNone;
  const auto status =
      ReadFrame(fds_[1], &payload, FrameTimeouts{/*idle_ms=*/0,
                                                 /*frame_ms=*/30},
                &kind);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(kind, FrameTimeoutKind::kMidFrame);
}

TEST_F(FramingTest, MidFrameDeadlineIsAbsoluteNotPerByte) {
  // A drip-feeding writer sends one byte at a time.  If the frame
  // deadline reset on every byte, this would never time out; absolute
  // means the whole frame must land within one window.
  const unsigned char header[4] = {0, 0, 0, 100};
  std::thread dripper([this, &header] {
    // MSG_NOSIGNAL: the reader closes its end mid-drip, and a plain
    // write() would raise SIGPIPE and kill the whole test binary.
    ::send(fds_[0], header, 4, MSG_NOSIGNAL);
    for (int i = 0; i < 30; ++i) {
      if (::send(fds_[0], "x", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::string payload;
  FrameTimeoutKind kind = FrameTimeoutKind::kNone;
  const auto status = ReadFrame(
      fds_[1], &payload, FrameTimeouts{/*idle_ms=*/0, /*frame_ms=*/50},
      &kind);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(kind, FrameTimeoutKind::kMidFrame);
  ::close(fds_[1]);
  fds_[1] = -1;
  dripper.join();
}

TEST_F(FramingTest, TimeoutsOffPreservesBlockingSemantics) {
  // FrameTimeouts{0, 0} must behave exactly like the untimed overload:
  // a complete frame round-trips, EOF is still kNotFound.
  ASSERT_TRUE(WriteFrame(fds_[0], "hello").ok());
  std::string payload;
  FrameTimeoutKind kind = FrameTimeoutKind::kMidFrame;  // must be reset
  ASSERT_TRUE(ReadFrame(fds_[1], &payload, FrameTimeouts{}, &kind).ok());
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(kind, FrameTimeoutKind::kNone);
  ::close(fds_[0]);
  fds_[0] = -1;
  EXPECT_EQ(ReadFrame(fds_[1], &payload, FrameTimeouts{}, &kind).code(),
            StatusCode::kNotFound);
}

TEST_F(FramingTest, WriteTimeoutFiresAgainstNeverReadingPeer) {
  // Shrink the pair's buffers so a modest frame cannot be absorbed by
  // the kernel, then write against a peer that never reads: the write
  // deadline must fire instead of blocking forever.
  const int small = 4096;
  ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  std::string big(4 << 20, 'x');
  const auto status = WriteFrame(fds_[0], big, /*timeout_ms=*/50);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FramingTest, WriteTimeoutZeroStillBlocksUntilDrained) {
  // timeout_ms=0 keeps the pre-timeout blocking contract: a concurrent
  // reader drains the frame and the write completes.
  std::string big(1 << 20, 'y');
  std::thread reader([this] {
    std::string payload;
    EXPECT_TRUE(ReadFrame(fds_[1], &payload).ok());
    EXPECT_EQ(payload.size(), 1u << 20);
  });
  EXPECT_TRUE(WriteFrame(fds_[0], big, /*timeout_ms=*/0).ok());
  reader.join();
}

TEST_F(FramingTest, DeadlineWriteLargerThanSendBufferArrivesIntact) {
  // A frame many times the (shrunken) send buffer, written with a
  // deadline: the non-blocking sendmsg() path drains it in many partial
  // sends that resume mid-iovec, and the reader must see the exact bytes.
  const int small = 4096;
  ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  std::string big(256 << 10, 'a');
  for (size_t i = 0; i < big.size(); i += 97) {
    big[i] = static_cast<char>('a' + (i / 97) % 26);
  }
  std::string payload;
  std::thread reader([this, &payload] {
    EXPECT_TRUE(ReadFrame(fds_[1], &payload).ok());
  });
  EXPECT_TRUE(WriteFrame(fds_[0], big, /*timeout_ms=*/10000).ok());
  reader.join();
  EXPECT_EQ(payload, big);
}

int NoDelayOf(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(Protocol, LoopbackConnectionsSetTcpNoDelayOnBothEnds) {
  // Nagle + delayed ACK stall a small response behind an un-ACKed
  // request by ~40 ms; both ends of a muved connection disable Nagle.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  auto client = DialLocal(ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int server = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(server, 0);
  EXPECT_NE(NoDelayOf(*client), 0);  // DialLocal sets it
  EXPECT_EQ(NoDelayOf(server), 0);   // the kernel default is Nagle on
  SetTcpNoDelay(server);  // muved's accept path: muved_integration_test
  EXPECT_NE(NoDelayOf(server), 0);

  // And the pair still frames correctly in both directions.
  ASSERT_TRUE(WriteFrame(*client, "{\"op\":\"ping\"}").ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(server, &payload).ok());
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
  ASSERT_TRUE(WriteFrame(server, "{\"ok\":true}").ok());
  ASSERT_TRUE(ReadFrame(*client, &payload).ok());
  EXPECT_EQ(payload, "{\"ok\":true}");
  ::close(*client);
  ::close(server);
  ::close(listener);
}

TEST(Protocol, OverloadedResponseCarriesRetryAfterHint) {
  const auto status = muve::common::Status::Unavailable(
      "overloaded: admission queue is full");
  JsonValue response = OverloadedResponse(status, 250);
  EXPECT_FALSE(response.Find("ok")->bool_value());
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->string_value(), "unavailable");
  EXPECT_EQ(error->Find("exit_code")->int_value(), 7);
  ASSERT_NE(error->Find("retry_after_ms"), nullptr);
  EXPECT_EQ(error->Find("retry_after_ms")->int_value(), 250);
}

TEST(Protocol, ErrorResponseCarriesTypedCodeAndExitCode) {
  const auto status =
      muve::common::Status::DeadlineExceeded("too slow");
  JsonValue response = ErrorResponse(status);
  EXPECT_FALSE(response.Find("ok")->bool_value());
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->string_value(), "deadline_exceeded");
  EXPECT_EQ(error->Find("exit_code")->int_value(),
            muve::common::ExitCodeForStatus(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(error->Find("message")->string_value(), "too slow");
}

}  // namespace
}  // namespace muve::server

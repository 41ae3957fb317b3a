// The focq_serve wire protocol codec: round-trips, incremental decoding in
// adversarially small chunks, and the malformed-frame taxonomy (truncated
// length prefix, oversized length, empty payload, unknown kind, garbage
// body) — every bad input must yield a clean sticky Status, never a crash.
#include "focq/serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "focq/core/statement.h"

namespace focq {
namespace serve {
namespace {

TEST(ServeProtocolTest, ScalarHelpersRoundTripLittleEndian) {
  std::string out;
  AppendU32(&out, 0x01020304u);
  AppendU64(&out, 0x0102030405060708ull);
  ASSERT_EQ(out.size(), 12u);
  // Little-endian on the wire, byte for byte.
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(out[4]), 0x08);
  EXPECT_EQ(static_cast<unsigned char>(out[11]), 0x01);
  EXPECT_EQ(ReadU32(out.data()), 0x01020304u);
  EXPECT_EQ(ReadU64(out.data() + 4), 0x0102030405060708ull);
}

TEST(ServeProtocolTest, RequestRoundTrip) {
  Request request;
  request.kind = FrameKind::kCount;
  request.id = 42;
  request.flags = kRequestFlagExplain;
  request.text = "@ge1(#(y). (E(x, y)) - 2)";

  FrameDecoder decoder;
  decoder.Feed(EncodeRequest(request));
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, FrameKind::kCount);
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->flags, kRequestFlagExplain);
  EXPECT_EQ(decoded->text, request.text);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());
}

TEST(ServeProtocolTest, TraceIdFlagRoundTripsOptionalField) {
  // kRequestFlagTraceId adds an optional u64 between the fixed header and
  // the statement text; it must round-trip alongside other flag bits.
  Request request;
  request.kind = FrameKind::kCheck;
  request.id = 11;
  request.flags = kRequestFlagExplain | kRequestFlagTraceId;
  request.trace_id = 0xdeadbeefcafef00dull;
  request.text = "E(x, y)";

  FrameDecoder decoder;
  decoder.Feed(EncodeRequest(request));
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->flags, kRequestFlagExplain | kRequestFlagTraceId);
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefcafef00dull);
  EXPECT_EQ(decoded->text, "E(x, y)");
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());
}

TEST(ServeProtocolTest, TraceIdFieldAbsentWithoutFlag) {
  // Without the flag the first 8 text bytes must NOT be eaten as a trace
  // id, even when they look like one.
  Request request;
  request.kind = FrameKind::kTerm;
  request.id = 3;
  request.flags = 0;
  request.trace_id = 0x1234567890abcdefull;  // ignored by the encoder
  request.text = "12345678 trailing text";

  FrameDecoder decoder;
  decoder.Feed(EncodeRequest(request));
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->flags, 0u);
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->text, "12345678 trailing text");
}

TEST(ServeProtocolTest, TruncatedTraceIdBodyFailsBodyDecodeRecoverably) {
  // Flag set but fewer than 8 bytes follow the fixed header: the frame
  // itself is well-formed (framing survives, the stream stays usable) but
  // body decoding must report a clean truncation error.
  std::string body;
  AppendU32(&body, 21);  // request id
  body.push_back(static_cast<char>(kRequestFlagTraceId));
  body += "abc";  // 3 bytes where the 8-byte trace id should be
  std::string wire;
  AppendU32(&wire, static_cast<std::uint32_t>(1 + body.size()));
  wire.push_back(static_cast<char>(FrameKind::kCount));
  wire += body;

  FrameDecoder decoder;
  decoder.Feed(wire);
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());  // recoverable: still in sync
}

TEST(ServeProtocolTest, ResponseRoundTripIncludingErrors) {
  for (bool ok : {true, false}) {
    Response response;
    response.ok = ok;
    response.id = 7;
    response.seq = (1ull << 40) + 5;  // seq is 64-bit on the wire
    response.text = ok ? "true" : "INVALID_ARGUMENT: nope";
    FrameDecoder decoder;
    decoder.Feed(EncodeResponse(response));
    Result<std::optional<Frame>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->has_value());
    Result<Response> decoded = DecodeResponse(**frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->ok, ok);
    EXPECT_EQ(decoded->id, 7u);
    EXPECT_EQ(decoded->seq, (1ull << 40) + 5);
    EXPECT_EQ(decoded->text, response.text);
  }
}

TEST(ServeProtocolTest, EmptyStatementTextRoundTrips) {
  Request request;
  request.kind = FrameKind::kCheck;
  request.id = 1;
  FrameDecoder decoder;
  decoder.Feed(EncodeRequest(request));
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->text, "");
}

TEST(ServeProtocolTest, ByteAtATimeDecodingMatchesOneShot) {
  // The decoder is incremental: the most adversarial chunking (one byte per
  // Feed) must produce exactly the frames of a single Feed.
  std::string wire;
  std::vector<Request> sent;
  for (std::uint32_t i = 0; i < 5; ++i) {
    Request request;
    request.kind = i % 2 == 0 ? FrameKind::kCheck : FrameKind::kTerm;
    request.id = i;
    request.text = "stmt-" + std::to_string(i);
    sent.push_back(request);
    AppendRequestFrame(&wire, request);
  }
  FrameDecoder decoder;
  std::vector<Request> got;
  for (char byte : wire) {
    decoder.Feed(std::string_view(&byte, 1));
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      Result<Request> decoded = DecodeRequest(**next);
      ASSERT_TRUE(decoded.ok());
      got.push_back(std::move(decoded).value());
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].id, sent[i].id);
    EXPECT_EQ(got[i].kind, sent[i].kind);
    EXPECT_EQ(got[i].text, sent[i].text);
  }
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());
}

TEST(ServeProtocolTest, TruncatedLengthPrefixIsDetectedAtEof) {
  FrameDecoder decoder;
  decoder.Feed(std::string_view("\x07\x00", 2));  // 2 of 4 length bytes
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());  // legitimately waiting for more bytes
  // ... but a stream that *ends* here died mid-frame.
  Status boundary = decoder.AtFrameBoundary();
  EXPECT_FALSE(boundary.ok());
  EXPECT_NE(boundary.message().find("mid-frame"), std::string::npos);
}

TEST(ServeProtocolTest, TruncatedBodyIsDetectedAtEof) {
  std::string wire = EncodeRequest(
      {FrameKind::kCount, 9, 0, 0, "count something long enough"});
  FrameDecoder decoder;
  decoder.Feed(std::string_view(wire).substr(0, wire.size() - 3));
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  EXPECT_FALSE(decoder.AtFrameBoundary().ok());
}

TEST(ServeProtocolTest, OversizedLengthPoisonsTheStream) {
  std::string wire;
  AppendU32(&wire, kMaxFrameBytes + 1);
  wire.push_back(static_cast<char>(FrameKind::kCheck));
  FrameDecoder decoder;
  decoder.Feed(wire);
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("oversized"), std::string::npos);
  // Sticky: feeding valid frames afterwards cannot resurrect the stream
  // (there is no way to resynchronise after a corrupt length).
  decoder.Feed(EncodeRequest({FrameKind::kPing, 1, 0, 0, ""}));
  Result<std::optional<Frame>> again = decoder.Next();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), next.status().message());
  EXPECT_FALSE(decoder.AtFrameBoundary().ok());
}

TEST(ServeProtocolTest, ZeroLengthFramePoisonsTheStream) {
  std::string wire;
  AppendU32(&wire, 0);
  FrameDecoder decoder;
  decoder.Feed(wire);
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("empty frame"), std::string::npos);
}

TEST(ServeProtocolTest, UnknownKindBytePoisonsTheStream) {
  std::string wire;
  AppendU32(&wire, 1);
  wire.push_back(static_cast<char>(0x7f));  // not a defined kind
  FrameDecoder decoder;
  decoder.Feed(wire);
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("unknown frame kind"),
            std::string::npos);
}

TEST(ServeProtocolTest, GarbagePayloadDecodesAsFrameButFailsBodyDecode) {
  // A well-formed frame whose body is too short for the request header:
  // framing survives (the stream stays usable), body decoding reports.
  std::string wire;
  AppendU32(&wire, 3);
  wire.push_back(static_cast<char>(FrameKind::kCheck));
  wire.push_back('\x01');
  wire.push_back('\x02');
  FrameDecoder decoder;
  decoder.Feed(wire);
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<Request> decoded = DecodeRequest(**frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());  // stream is still in sync
}

TEST(ServeProtocolTest, DirectionMismatchIsRejected) {
  Frame response_frame;
  response_frame.kind = FrameKind::kOk;
  response_frame.body = std::string(12, '\0');
  EXPECT_FALSE(DecodeRequest(response_frame).ok());

  Frame request_frame;
  request_frame.kind = FrameKind::kCheck;
  request_frame.body = std::string(5, '\0');
  EXPECT_FALSE(DecodeResponse(request_frame).ok());
}

TEST(ServeProtocolTest, ControlFramesRejectStatementText) {
  Frame frame;
  frame.kind = FrameKind::kPing;
  frame.body = std::string(5, '\0') + "unexpected";
  Result<Request> decoded = DecodeRequest(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("no statement text"),
            std::string::npos);
}

TEST(ServeProtocolTest, StatementKindWordsMatchBatchGrammar) {
  for (StatementKind statement : {StatementKind::kCheck, StatementKind::kCount,
                                  StatementKind::kTerm,
                                  StatementKind::kUpdate}) {
    FrameKind kind = StatementFrameKind(statement);
    EXPECT_TRUE(IsStatementKind(kind));
    EXPECT_STREQ(FrameKindName(kind), StatementKindName(statement));
    EXPECT_EQ(StatementKindFromWord(FrameKindName(kind)), statement);
  }
  EXPECT_FALSE(StatementKindFromWord("ping").has_value());
  EXPECT_FALSE(StatementKindFromWord("").has_value());
  EXPECT_TRUE(IsReadStatement(FrameKind::kCheck));
  EXPECT_FALSE(IsReadStatement(FrameKind::kUpdate));
}

TEST(ServeProtocolTest, LongStreamCompactionKeepsDecodingCorrect) {
  // Enough traffic to trigger the decoder's internal buffer compaction.
  std::string wire;
  const int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    AppendRequestFrame(&wire, {FrameKind::kTerm,
                               static_cast<std::uint32_t>(i), 0, 0,
                               std::string(16, 'x')});
  }
  FrameDecoder decoder;
  int decoded = 0;
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t chunk = std::min<std::size_t>(97, wire.size() - offset);
    decoder.Feed(std::string_view(wire).substr(offset, chunk));
    offset += chunk;
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      Result<Request> request = DecodeRequest(**next);
      ASSERT_TRUE(request.ok());
      EXPECT_EQ(request->id, static_cast<std::uint32_t>(decoded));
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, kFrames);
  EXPECT_TRUE(decoder.AtFrameBoundary().ok());
}

}  // namespace
}  // namespace serve
}  // namespace focq

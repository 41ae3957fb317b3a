#include "focq/serve/protocol.h"

#include "focq/core/statement.h"

namespace focq {
namespace serve {

namespace {

// Fixed header sizes of the decoded bodies (after the kind byte).
constexpr std::size_t kRequestHeaderBytes = 4 + 1;      // id + flags
constexpr std::size_t kResponseHeaderBytes = 4 + 8;     // id + seq

static_assert(StatementFrameKind(StatementKind::kCheck) == FrameKind::kCheck &&
              StatementFrameKind(StatementKind::kCount) == FrameKind::kCount &&
              StatementFrameKind(StatementKind::kTerm) == FrameKind::kTerm &&
              StatementFrameKind(StatementKind::kUpdate) ==
                  FrameKind::kUpdate);

}  // namespace

bool IsRequestKind(std::uint8_t byte) {
  return byte >= static_cast<std::uint8_t>(FrameKind::kCheck) &&
         byte <= static_cast<std::uint8_t>(FrameKind::kShutdown);
}

bool IsResponseKind(std::uint8_t byte) {
  return byte == static_cast<std::uint8_t>(FrameKind::kOk) ||
         byte == static_cast<std::uint8_t>(FrameKind::kError);
}

bool IsStatementKind(FrameKind kind) {
  return kind == FrameKind::kCheck || kind == FrameKind::kCount ||
         kind == FrameKind::kTerm || kind == FrameKind::kUpdate;
}

bool IsReadStatement(FrameKind kind) {
  return kind == FrameKind::kCheck || kind == FrameKind::kCount ||
         kind == FrameKind::kTerm;
}

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kCheck: return "check";
    case FrameKind::kCount: return "count";
    case FrameKind::kTerm: return "term";
    case FrameKind::kUpdate: return "update";
    case FrameKind::kPing: return "ping";
    case FrameKind::kShutdown: return "shutdown";
    case FrameKind::kOk: return "ok";
    case FrameKind::kError: return "error";
  }
  return "unknown";
}

void AppendU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t ReadU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t ReadU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

namespace {

void AppendFrame(std::string* out, FrameKind kind, std::string_view body) {
  AppendU32(out, static_cast<std::uint32_t>(1 + body.size()));
  out->push_back(static_cast<char>(kind));
  out->append(body);
}

}  // namespace

void AppendRequestFrame(std::string* out, const Request& request) {
  std::string body;
  body.reserve(kRequestHeaderBytes + 8 + request.text.size());
  AppendU32(&body, request.id);
  body.push_back(static_cast<char>(request.flags));
  if ((request.flags & kRequestFlagTraceId) != 0) {
    AppendU64(&body, request.trace_id);
  }
  body.append(request.text);
  AppendFrame(out, request.kind, body);
}

void AppendResponseFrame(std::string* out, const Response& response) {
  std::string body;
  body.reserve(kResponseHeaderBytes + response.text.size());
  AppendU32(&body, response.id);
  AppendU64(&body, response.seq);
  body.append(response.text);
  AppendFrame(out, response.ok ? FrameKind::kOk : FrameKind::kError, body);
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  AppendRequestFrame(&out, request);
  return out;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  AppendResponseFrame(&out, response);
  return out;
}

Result<Request> DecodeRequest(const Frame& frame) {
  if (!IsRequestKind(static_cast<std::uint8_t>(frame.kind))) {
    return Status::InvalidArgument(
        std::string("not a request frame kind: ") + FrameKindName(frame.kind));
  }
  if (frame.body.size() < kRequestHeaderBytes) {
    return Status::InvalidArgument(
        "request body truncated: " + std::to_string(frame.body.size()) +
        " bytes, need at least " + std::to_string(kRequestHeaderBytes));
  }
  Request request;
  request.kind = frame.kind;
  request.id = ReadU32(frame.body.data());
  request.flags = static_cast<std::uint8_t>(frame.body[4]);
  std::size_t header = kRequestHeaderBytes;
  if ((request.flags & kRequestFlagTraceId) != 0) {
    if (frame.body.size() < kRequestHeaderBytes + 8) {
      return Status::InvalidArgument(
          "request body truncated: trace-id flag set but only " +
          std::to_string(frame.body.size()) + " bytes, need at least " +
          std::to_string(kRequestHeaderBytes + 8));
    }
    request.trace_id = ReadU64(frame.body.data() + kRequestHeaderBytes);
    header += 8;
  }
  request.text = frame.body.substr(header);
  if (!IsStatementKind(request.kind) && !request.text.empty()) {
    return Status::InvalidArgument(
        std::string(FrameKindName(request.kind)) +
        " frames carry no statement text");
  }
  return request;
}

Result<Response> DecodeResponse(const Frame& frame) {
  if (!IsResponseKind(static_cast<std::uint8_t>(frame.kind))) {
    return Status::InvalidArgument(
        std::string("not a response frame kind: ") +
        FrameKindName(frame.kind));
  }
  if (frame.body.size() < kResponseHeaderBytes) {
    return Status::InvalidArgument(
        "response body truncated: " + std::to_string(frame.body.size()) +
        " bytes, need at least " + std::to_string(kResponseHeaderBytes));
  }
  Response response;
  response.ok = frame.kind == FrameKind::kOk;
  response.id = ReadU32(frame.body.data());
  response.seq = ReadU64(frame.body.data() + 4);
  response.text = frame.body.substr(kResponseHeaderBytes);
  return response;
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (!error_.ok()) return;  // poisoned: drop everything
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (!error_.ok()) return error_;
  const std::size_t available = buffer_.size() - pos_;
  if (available < 4) return std::optional<Frame>();
  const std::uint32_t length = ReadU32(buffer_.data() + pos_);
  if (length == 0) {
    error_ = Status::InvalidArgument("empty frame: payload must carry a "
                                     "kind byte");
    return error_;
  }
  if (length > max_frame_bytes_) {
    error_ = Status::InvalidArgument(
        "oversized frame: " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(max_frame_bytes_) + "-byte limit");
    return error_;
  }
  if (available < 4 + static_cast<std::size_t>(length)) {
    return std::optional<Frame>();  // need more bytes
  }
  const std::uint8_t kind_byte =
      static_cast<std::uint8_t>(buffer_[pos_ + 4]);
  if (!IsRequestKind(kind_byte) && !IsResponseKind(kind_byte)) {
    error_ = Status::InvalidArgument(
        "unknown frame kind byte " + std::to_string(kind_byte));
    return error_;
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind_byte);
  frame.body.assign(buffer_, pos_ + 5, length - 1);
  pos_ += 4 + length;
  return std::optional<Frame>(std::move(frame));
}

Status FrameDecoder::AtFrameBoundary() const {
  if (!error_.ok()) return error_;
  if (buffered_bytes() != 0) {
    return Status::InvalidArgument(
        "stream ended mid-frame with " + std::to_string(buffered_bytes()) +
        " buffered bytes");
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace focq

// The focq_serve wire protocol: a length-prefixed binary framing of the
// `--batch` statement grammar (DESIGN.md §3g).
//
// Every message, in both directions, is one frame:
//
//   frame    := u32-LE payload-length ++ payload      (length >= 1)
//   payload  := kind-byte ++ body
//
// Request body (client -> server):
//   u32-LE request id ++ u8 flags ++ [u64-LE trace id] ++ statement text
// The request id is an opaque client-side correlation token: pipelined
// clients tag each request and match responses by id, because a server is
// free to complete concurrently admitted reads out of order. `flags` bit 0
// asks for EXPLAIN ANALYZE attribution appended to the response text;
// bit 1 says the optional u64 trace id field is present — the id the
// server stamps on every lifecycle span and query-log record for this
// request (server-generated when absent), so a client can correlate its
// own distributed trace with the server's.
//
// Response body (server -> client):
//   u32-LE request id ++ u64-LE admission seq ++ result text
// `seq` is the server's global admission sequence number: replaying every
// statement of a multi-client run serially, ordered by seq, through one
// Session reproduces each response text bit for bit (the snapshot-semantics
// contract the serve-smoke CI job enforces).
//
// The statement kinds are those of focq/core/statement.h, the one definition
// of statement semantics: a statement frame's kind byte is its StatementKind
// value, and the server answers it with the text ExecuteStatement renders.
// kPing and kShutdown are control frames. The decoder is incremental and
// hardened: oversized lengths, empty payloads and unknown kind bytes poison
// the stream with a clean Status (never a crash) — the byte-level fuzz mode
// of focq_fuzz (--frames) drives it with mutated streams.
#ifndef FOCQ_SERVE_PROTOCOL_H_
#define FOCQ_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "focq/util/status.h"

namespace focq {

enum class StatementKind : std::uint8_t;  // focq/core/statement.h

namespace serve {

/// Frames larger than this are rejected before any allocation happens — a
/// malicious or corrupted length prefix must not OOM the server.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// The payload kind byte. Request kinds are < 0x10, response kinds >= 0x10.
/// The four statement kinds share their byte values with StatementKind.
enum class FrameKind : std::uint8_t {
  kCheck = 0x01,     // decide A |= phi            (statement "check")
  kCount = 0x02,     // counting problem |phi(A)|  (statement "count")
  kTerm = 0x03,      // ground counting term       (statement "term")
  kUpdate = 0x04,    // tuple update               (statement "update")
  kPing = 0x05,      // liveness probe; answered without touching the gate
  kShutdown = 0x06,  // ask the server to drain and exit
  kOk = 0x10,        // successful response
  kError = 0x11,     // failed response (body text carries the diagnostic)
};

/// Request flag bits.
inline constexpr std::uint8_t kRequestFlagExplain = 0x01;
/// The body carries a u64 trace id between the flags byte and the text.
inline constexpr std::uint8_t kRequestFlagTraceId = 0x02;

bool IsRequestKind(std::uint8_t byte);
bool IsResponseKind(std::uint8_t byte);
/// check/count/term/update — the kinds that are batch statements (and the
/// only ones the admission-order replay contract covers).
bool IsStatementKind(FrameKind kind);
/// True for check/count/term — statements admitted under the shared
/// (snapshot) side of the gate; update takes the exclusive side.
bool IsReadStatement(FrameKind kind);

/// "check" for kCheck, ... "shutdown" for kShutdown, "ok"/"error".
const char* FrameKindName(FrameKind kind);

/// The frame carrying a statement of `kind`.
constexpr FrameKind StatementFrameKind(StatementKind kind) {
  return static_cast<FrameKind>(kind);
}

/// One raw decoded frame: the kind byte plus the undecoded body bytes.
struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::string body;
};

struct Request {
  FrameKind kind = FrameKind::kPing;
  std::uint32_t id = 0;     // client correlation token, echoed verbatim
  std::uint8_t flags = 0;   // kRequestFlag* bits
  std::uint64_t trace_id = 0;  // meaningful iff kRequestFlagTraceId is set
  std::string text;         // statement text (empty for ping/shutdown)
};

struct Response {
  bool ok = true;
  std::uint32_t id = 0;     // echo of Request::id
  std::uint64_t seq = 0;    // global admission sequence number
  std::string text;         // result ("true", "42", "applied") or diagnostic
};

// --- little-endian scalar helpers (shared with tests and the fuzzer) -------
void AppendU32(std::string* out, std::uint32_t v);
void AppendU64(std::string* out, std::uint64_t v);
std::uint32_t ReadU32(const char* p);
std::uint64_t ReadU64(const char* p);

/// Serialises a request/response as one complete frame (length prefix
/// included), appended to `out`.
void AppendRequestFrame(std::string* out, const Request& request);
void AppendResponseFrame(std::string* out, const Response& response);

std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Decodes the body of a raw frame. Errors (response kind on the request
/// path, body shorter than the fixed header, non-statement kind carrying
/// text) are reported via Status — never an abort — so one bad client frame
/// costs one error response, not the server.
Result<Request> DecodeRequest(const Frame& frame);
Result<Response> DecodeResponse(const Frame& frame);

/// Incremental frame decoder over an arbitrary byte stream. Feed whatever
/// chunks the socket yields; Next() pops one complete frame, returns nullopt
/// when more bytes are needed, or a Status on a malformed stream. Errors are
/// sticky: a poisoned stream keeps reporting the same error (the connection
/// is dead; there is no way to resynchronise a corrupted length prefix).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(std::string_view bytes);

  /// One decoded frame, nullopt ("need more bytes"), or the stream error.
  Result<std::optional<Frame>> Next();

  /// Bytes fed but not yet consumed by Next().
  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

  /// Ok exactly when the stream ended on a frame boundary: call at EOF to
  /// distinguish a clean close from a peer that died mid-frame.
  Status AtFrameBoundary() const;

 private:
  std::uint32_t max_frame_bytes_;
  std::string buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  Status error_ = Status::Ok();
};

}  // namespace serve
}  // namespace focq

#endif  // FOCQ_SERVE_PROTOCOL_H_

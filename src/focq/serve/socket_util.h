// Thin Status-returning wrappers over the POSIX socket calls focq_serve
// needs. Loopback only: the server is a local evaluation daemon, not an
// internet-facing service, so it binds 127.0.0.1 unconditionally.
#ifndef FOCQ_SERVE_SOCKET_UTIL_H_
#define FOCQ_SERVE_SOCKET_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "focq/util/status.h"

namespace focq {
namespace serve {

/// Creates a listening TCP socket bound to 127.0.0.1:port (port 0 picks an
/// ephemeral port; read it back with LocalPort). Returns the fd.
Result<int> ListenLoopback(std::uint16_t port, int backlog = 64);

/// The port a bound socket actually listens on.
Result<std::uint16_t> LocalPort(int fd);

/// Connects to 127.0.0.1:port; returns the fd, with TCP_NODELAY set.
Result<int> ConnectLoopback(std::uint16_t port);

/// Accepts one connection on a listening socket, retrying EINTR; returns
/// the fd, with TCP_NODELAY set. Fails once the listening socket is shut
/// down or closed.
Result<int> AcceptConnection(int listen_fd);

/// Writes all of `bytes`, retrying short writes; MSG_NOSIGNAL so a dead
/// peer yields a Status instead of SIGPIPE.
Status SendAll(int fd, std::string_view bytes);

/// One recv of up to `max_bytes`; empty string on orderly EOF.
Result<std::string> RecvSome(int fd, std::size_t max_bytes = 64 * 1024);

void CloseFd(int fd);
/// shutdown(2) both directions — unblocks a reader without invalidating
/// the fd number.
void ShutdownFd(int fd);

}  // namespace serve
}  // namespace focq

#endif  // FOCQ_SERVE_SOCKET_UTIL_H_

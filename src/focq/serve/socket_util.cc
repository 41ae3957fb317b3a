#include "focq/serve/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace focq {
namespace serve {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

sockaddr_in LoopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Both ends of a connection disable Nagle: requests and responses are small
// frames, and delayed ACKs would hold each one back by tens of ms.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<int> ListenLoopback(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  return fd;
}

Result<std::uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<int> ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Errno("connect 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return status;
  }
  SetNoDelay(fd);
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return fd;
    }
    if (errno != EINTR) return Errno("accept");
  }
}

Status SendAll(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> RecvSome(int fd, std::size_t max_bytes) {
  std::string out(max_bytes, '\0');
  for (;;) {
    const ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    out.resize(static_cast<std::size_t>(n));
    return out;
  }
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace serve
}  // namespace focq

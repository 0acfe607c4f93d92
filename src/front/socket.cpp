#include "front/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace gdur::front {

namespace {

/// `host`:`port` as an IPv4 address. False on a malformed or empty host.
bool make_addr(const std::string& host, std::uint16_t port, sockaddr_in* a) {
  *a = {};
  a->sin_family = AF_INET;
  a->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &a->sin_addr) == 1;
}

}  // namespace

Listener tcp_listen(const std::string& host, std::uint16_t port,
                    int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const auto fail = [&](const char* step) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("listen on " + host + ":" + std::to_string(port) +
                             ": " + step + ": " + std::strerror(err));
  };
  if (fd < 0) fail("socket");
  sockaddr_in addr;
  if (!make_addr(host, port, &addr)) {
    errno = EINVAL;
    fail("bad host");
  }
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0)
    fail("SO_REUSEADDR");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    fail("bind");
  if (::listen(fd, backlog) != 0) fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname");
  return Listener{fd, ntohs(addr.sin_port)};
}

int tcp_dial(const std::string& host, std::uint16_t port,
             std::chrono::steady_clock::time_point deadline) {
  sockaddr_in addr;
  if (!make_addr(host, port, &addr)) {
    errno = EINVAL;
    return -1;
  }
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // gdur-lint: allow(live/blocking-call) connection setup on the caller's thread, before any reactor or mailbox serves the socket
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0)
      return fd;
    const int err = errno;
    ::close(fd);
    errno = err;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    // gdur-lint: allow(live/blocking-call) boot-order retry pacing on the caller's thread, before any reactor or mailbox serves the socket
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace gdur::front

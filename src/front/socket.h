// TCP socket setup shared by FrontServer, GdurClient and live::LiveTransport:
// one listen and one dial, each closing its socket on every failure path.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace gdur::front {

struct Listener {
  int fd = -1;
  std::uint16_t port = 0;  // the bound port (ephemeral when 0 was asked)
};

/// Binds `host`:`port` ("0.0.0.0": every interface) with SO_REUSEADDR and
/// listens. On failure (an empty or malformed host included) the socket is
/// closed and std::runtime_error names the failed step and errno.
[[nodiscard]] Listener tcp_listen(const std::string& host, std::uint16_t port,
                                  int backlog);

/// Connects with TCP_NODELAY set, retrying a failed connect (a peer process
/// still booting refuses it) every 50 ms until `deadline`; a deadline
/// already past allows one attempt. Returns the socket, or -1 with errno
/// set on timeout or a malformed host.
[[nodiscard]] int tcp_dial(const std::string& host, std::uint16_t port,
                           std::chrono::steady_clock::time_point deadline);

}  // namespace gdur::front

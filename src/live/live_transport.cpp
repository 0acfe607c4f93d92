#include "live/live_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "net/codec.h"
#include "net/frame.h"
#include "obs/plane.h"

namespace gdur::live {

namespace {

using std::chrono::steady_clock;

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("live transport: ") + what + ": " +
                           std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    fail("bad host");
  }
  return addr;
}

/// Sends the framed ControlMsg hello announcing `src` on `fd` (blocking: the
/// handshake runs on the caller's setup thread, before the reactor starts).
void send_hello(int fd, SiteId src) {
  net::codec::Writer w;
  w.u8(static_cast<std::uint8_t>(net::codec::MsgType::kControl));
  net::codec::encode(w, net::codec::ControlMsg{1 /* hello */, src});
  if (!net::write_frame(fd, w.data())) fail("handshake write");
}

/// Reads the framed hello off an inbound connection; returns the announced
/// source site. Throws on malformed input.
SiteId read_hello(int fd, int sites) {
  constexpr std::uint32_t kMaxHello = 64;
  std::vector<std::uint8_t> body;
  if (!net::read_frame(fd, body, kMaxHello) || body.empty())
    fail("bad hello frame");
  net::codec::Reader r(body);
  const auto tag = r.u8();
  if (!tag || *tag != static_cast<std::uint8_t>(net::codec::MsgType::kControl))
    fail("bad hello tag");
  const auto hello = net::codec::decode<net::codec::ControlMsg>(r);
  if (!hello || hello->kind != 1 ||
      hello->arg >= static_cast<std::uint64_t>(sites))
    fail("bad hello body");
  return static_cast<SiteId>(hello->arg);
}

}  // namespace

void LiveTransport::register_inbound(int conn, SiteId src, SiteId dst) {
  if (static_cast<std::size_t>(conn) >= in_link_.size())
    in_link_.resize(static_cast<std::size_t>(conn) + 1, {kNoSite, kNoSite});
  in_link_[static_cast<std::size_t>(conn)] = {src, dst};
}

void LiveTransport::install_frame_handler() {
  reactor_.set_frame_handler([this](int conn_id,
                                    std::vector<std::uint8_t> f) {
    if (static_cast<std::size_t>(conn_id) >= in_link_.size()) return;
    const auto [src, dst] = in_link_[static_cast<std::size_t>(conn_id)];
    if (src == kNoSite) return;  // write-only outbound link
    const auto d = delay_[static_cast<std::size_t>(link_index(src, dst))];
    if (d.count() == 0) {
      deliver_(src, dst, std::move(f));
    } else {
      wheel_.schedule_after(d, [this, src, dst, f = std::move(f)]() mutable {
        deliver_(src, dst, std::move(f));
      });
    }
  });
}

LiveTransport::LiveTransport(int sites, TimerWheel& wheel, obs::ObsPlane& plane,
                             Deliver deliver)
    : sites_(sites),
      wheel_(wheel),
      plane_(plane),
      deliver_(std::move(deliver)),
      out_conn_(static_cast<std::size_t>(sites) * sites, -1),
      delay_(static_cast<std::size_t>(sites) * sites,
             std::chrono::nanoseconds(0)) {
  // 1. One listener per site on an ephemeral loopback port.
  std::vector<int> listeners(sites, -1);
  std::vector<std::uint16_t> ports(sites, 0);
  for (int s = 0; s < sites; ++s) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      fail("bind");
    if (::listen(fd, sites) != 0) fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      fail("getsockname");
    listeners[s] = fd;
    ports[s] = ntohs(addr.sin_port);
  }

  // 2. All connects first (the listen backlog holds them), each announcing
  //    its source site with a framed ControlMsg hello.
  for (int i = 0; i < sites; ++i) {
    for (int j = 0; j < sites; ++j) {
      if (i == j) continue;
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail("socket");
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(ports[j]);
      // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        fail("connect");
      send_hello(fd, static_cast<SiteId>(i));
      const int conn = reactor_.add_connection(fd);
      out_conn_[static_cast<std::size_t>(
          link_index(static_cast<SiteId>(i), static_cast<SiteId>(j)))] = conn;
      // Outbound connections are write-only (the peer never sends on
      // them); keep in_link_ index-aligned with conn ids regardless.
      register_inbound(conn, kNoSite, kNoSite);
    }
  }

  // 3. Accept and identify inbound connections at each site.
  for (int j = 0; j < sites; ++j) {
    for (int k = 0; k < sites - 1; ++k) {
      // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
      const int fd = ::accept(listeners[j], nullptr, nullptr);
      if (fd < 0) fail("accept");
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const SiteId src = read_hello(fd, sites);
      const int conn = reactor_.add_connection(fd);
      register_inbound(conn, src, static_cast<SiteId>(j));
    }
    ::close(listeners[j]);
  }

  install_frame_handler();
}

LiveTransport::LiveTransport(int sites, SiteId self,
                             const std::vector<SiteEndpoint>& peers,
                             TimerWheel& wheel, obs::ObsPlane& plane,
                             Deliver deliver,
                             std::chrono::seconds connect_deadline)
    : sites_(sites),
      wheel_(wheel),
      plane_(plane),
      deliver_(std::move(deliver)),
      out_conn_(static_cast<std::size_t>(sites) * sites, -1),
      delay_(static_cast<std::size_t>(sites) * sites,
             std::chrono::nanoseconds(0)) {
  if (peers.size() != static_cast<std::size_t>(sites)) {
    errno = EINVAL;
    fail("endpoint count != sites");
  }
  const auto deadline = steady_clock::now() + connect_deadline;

  // 1. Bind this site's listener first, so peers dialing us in any boot
  //    order eventually succeed.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) fail("socket");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in laddr = make_addr(peers[self].host, peers[self].port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&laddr), sizeof laddr) != 0)
    fail("bind");
  if (::listen(lfd, sites) != 0) fail("listen");

  // 2. Dial every peer with bounded retries (their processes may still be
  //    booting; ECONNREFUSED just means "not yet").
  for (int j = 0; j < sites; ++j) {
    if (j == static_cast<int>(self)) continue;
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail("socket");
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      sockaddr_in addr = make_addr(peers[j].host, peers[j].port);
      // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        break;
      ::close(fd);
      fd = -1;
      if (steady_clock::now() >= deadline) fail("peer connect timed out");
      // gdur-lint: allow(live/blocking-call) boot-order retry pacing on the setup thread, before the reactor starts
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    send_hello(fd, self);
    const int conn = reactor_.add_connection(fd);
    out_conn_[static_cast<std::size_t>(
        link_index(self, static_cast<SiteId>(j)))] = conn;
    register_inbound(conn, kNoSite, kNoSite);
  }

  // 3. Accept the peers' inbound links, waiting out stragglers up to the
  //    deadline.
  for (int k = 0; k < sites - 1; ++k) {
    pollfd p{lfd, POLLIN, 0};
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - steady_clock::now());
      if (left.count() <= 0) fail("peer accept timed out");
      // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc > 0) break;
      if (rc < 0 && errno != EINTR) fail("poll");
    }
    // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) fail("accept");
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const SiteId src = read_hello(fd, sites);
    const int conn = reactor_.add_connection(fd);
    register_inbound(conn, src, self);
  }
  ::close(lfd);  // static membership: nobody else will dial in

  install_frame_handler();
}

void LiveTransport::set_link_delay(SiteId src, SiteId dst,
                                   std::chrono::nanoseconds d) {
  delay_[static_cast<std::size_t>(link_index(src, dst))] = d;
}

void LiveTransport::send(SiteId src, SiteId dst,
                         const std::vector<std::uint8_t>& body) {
  const int conn =
      out_conn_[static_cast<std::size_t>(link_index(src, dst))];
  if (conn < 0) return;  // not our link (external mesh: src must be self)
  auto& slot = plane_.slot(src);
  slot.record(obs::Counter::kMsgsSent);
  slot.record(obs::Counter::kBytesSent, body.size() + net::kFrameHeader);
  slot.record_value(obs::Hist::kMsgBytes, body.size() + net::kFrameHeader);
  reactor_.send_frame(conn, body);
}

}  // namespace gdur::live

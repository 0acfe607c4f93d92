#include "live/live_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
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

/// Connects to `ep`, retrying every 50 ms until `deadline`: a peer process
/// may still be booting (ECONNREFUSED just means "not yet"). In the
/// in-process mesh every listener is bound already, so the first attempt
/// succeeds.
int dial(const SiteEndpoint& ep, steady_clock::time_point deadline) {
  const sockaddr_in addr = make_addr(ep.host, ep.port);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // gdur-lint: allow(live/blocking-call) mesh setup on the caller's thread, before the reactor starts
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0)
      return fd;
    ::close(fd);
    if (steady_clock::now() >= deadline) fail("peer connect timed out");
    // gdur-lint: allow(live/blocking-call) boot-order retry pacing on the setup thread, before the reactor starts
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Accepts one inbound link on `lfd`, waiting for it until `deadline`. (The
/// in-process mesh's links are queued already, so poll() returns at once.)
int accept_by(int lfd, steady_clock::time_point deadline) {
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
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

void LiveTransport::register_inbound(int conn, SiteId src, SiteId dst) {
  if (static_cast<std::size_t>(conn) >= in_link_.size())
    in_link_.resize(static_cast<std::size_t>(conn) + 1, {kNoSite, kNoSite});
  in_link_[static_cast<std::size_t>(conn)] = {src, dst};
}

LiveTransport::LiveTransport(int sites, SiteId self,
                             std::vector<SiteEndpoint> peers,
                             obs::ObsPlane& plane, Deliver deliver)
    : sites_(sites),
      plane_(plane),
      deliver_(std::move(deliver)),
      out_conn_(static_cast<std::size_t>(sites) * sites, -1) {
  if (peers.empty()) peers.resize(static_cast<std::size_t>(sites));
  if (peers.size() != static_cast<std::size_t>(sites)) {
    errno = EINVAL;
    fail("endpoint count != sites");
  }
  std::vector<SiteId> hosted;
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s)
    if (self == kNoSite || s == self) hosted.push_back(s);
  const auto deadline = steady_clock::now() + std::chrono::seconds(30);

  // 1. Bind every hosted site's listener first, so peers dialing in any
  //    boot order eventually succeed. A port of 0 binds an ephemeral one,
  //    read back for the dialers below.
  std::vector<int> listeners;
  for (SiteId s : hosted) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = make_addr(peers[s].host, peers[s].port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      fail("bind");
    if (::listen(fd, sites) != 0) fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      fail("getsockname");
    peers[s].port = ntohs(addr.sin_port);
    listeners.push_back(fd);
  }

  // 2. Dial every other site from each hosted one (a listen backlog holds
  //    the in-process mesh's links until step 3 accepts them).
  for (SiteId i : hosted) {
    for (SiteId j = 0; j < static_cast<SiteId>(sites); ++j) {
      if (i == j) continue;
      const int fd = dial(peers[j], deadline);
      send_hello(fd, i);
      const int conn = reactor_.add_connection(fd);
      out_conn_[static_cast<std::size_t>(link_index(i, j))] = conn;
      // Outbound connections are write-only (the peer never sends on
      // them); keep in_link_ index-aligned with conn ids regardless.
      register_inbound(conn, kNoSite, kNoSite);
    }
  }

  // 3. Accept and identify each hosted site's inbound links, waiting out
  //    straggling peers up to the deadline. Membership is static, so the
  //    listener closes once every peer has dialed in.
  for (std::size_t h = 0; h < hosted.size(); ++h) {
    for (int k = 0; k < sites - 1; ++k) {
      const int fd = accept_by(listeners[h], deadline);
      const SiteId src = read_hello(fd, sites);
      register_inbound(reactor_.add_connection(fd), src, hosted[h]);
    }
    ::close(listeners[h]);
  }

  reactor_.set_frame_handler([this](int conn_id,
                                    std::vector<std::uint8_t> f) {
    if (static_cast<std::size_t>(conn_id) >= in_link_.size()) return;
    const auto [src, dst] = in_link_[static_cast<std::size_t>(conn_id)];
    if (src == kNoSite) return;  // write-only outbound link
    deliver_(src, dst, std::move(f));
  });
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

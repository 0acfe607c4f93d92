#include "live/live_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "front/socket.h"
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

/// fail() for a link the reactor does not own yet: closes `fd` first.
[[noreturn]] void fail_closing(int fd, const char* what) {
  const int err = errno;
  ::close(fd);
  errno = err;
  fail(what);
}

/// Sends the framed ControlMsg hello announcing `src` on `fd` (blocking: the
/// handshake runs on the caller's setup thread, before the reactor starts).
/// Closes `fd` and throws if the write fails.
void send_hello(int fd, SiteId src) {
  net::codec::Writer w;
  w.u8(static_cast<std::uint8_t>(net::codec::MsgType::kControl));
  net::codec::encode(w, net::codec::ControlMsg{1 /* hello */, src});
  if (!net::write_frame(fd, w.data())) fail_closing(fd, "handshake write");
}

/// Reads the framed hello off an inbound connection; returns the announced
/// source site. Closes `fd` and throws on malformed input.
SiteId read_hello(int fd, int sites) {
  constexpr std::uint32_t kMaxHello = 64;
  std::vector<std::uint8_t> body;
  if (!net::read_frame(fd, body, kMaxHello) || body.empty())
    fail_closing(fd, "bad hello frame");
  net::codec::Reader r(body);
  const auto tag = r.u8();
  if (!tag || *tag != static_cast<std::uint8_t>(net::codec::MsgType::kControl))
    fail_closing(fd, "bad hello tag");
  const auto hello = net::codec::decode<net::codec::ControlMsg>(r);
  if (!hello || hello->kind != 1 ||
      hello->arg >= static_cast<std::uint64_t>(sites))
    fail_closing(fd, "bad hello body");
  return static_cast<SiteId>(hello->arg);
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
  //    read back for the dialers below. The listeners close when the
  //    constructor returns or throws (the reactor closes the links it was
  //    given).
  std::vector<int> listeners;
  struct CloseAll {
    std::vector<int>& fds;
    ~CloseAll() { for (int fd : fds) ::close(fd); }
  } close_listeners{listeners};
  for (SiteId s : hosted) {
    const front::Listener l =
        front::tcp_listen(peers[s].host, peers[s].port, sites);
    peers[s].port = l.port;
    listeners.push_back(l.fd);
  }

  // 2. Dial every other site from each hosted one (a listen backlog holds
  //    the in-process mesh's links until step 3 accepts them).
  for (SiteId i : hosted) {
    for (SiteId j = 0; j < static_cast<SiteId>(sites); ++j) {
      if (i == j) continue;
      const int fd = front::tcp_dial(peers[j].host, peers[j].port, deadline);
      if (fd < 0) fail("peer connect");
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
  //    listeners are not needed once every peer has dialed in.
  for (std::size_t h = 0; h < hosted.size(); ++h) {
    for (int k = 0; k < sites - 1; ++k) {
      const int fd = accept_by(listeners[h], deadline);
      const SiteId src = read_hello(fd, sites);
      register_inbound(reactor_.add_connection(fd), src, hosted[h]);
    }
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
                         std::vector<std::uint8_t> body) {
  const int conn =
      out_conn_[static_cast<std::size_t>(link_index(src, dst))];
  if (conn < 0) return;  // not our link (external mesh: src must be self)
  auto& slot = plane_.slot(src);
  slot.record(obs::Counter::kMsgsSent);
  slot.record(obs::Counter::kBytesSent, body.size() + net::kFrameHeader);
  slot.record_value(obs::Hist::kMsgBytes, body.size() + net::kFrameHeader);
  reactor_.send_frame(conn, std::move(body));
}

}  // namespace gdur::live

// Real-socket transport with the simulator's delivery contract.
//
// Sites are connected by a full mesh of TCP connections, one per ordered
// pair (i, j): site i only ever writes on its (i, j) connection and site j
// only reads from it, so TCP's per-connection byte stream directly yields
// exactly-once, FIFO-per-link delivery — the contract core::Cluster
// documents for its transport seam.
//
// One constructor builds the mesh for the sites a process hosts: every
// site in the in-process loopback mesh (listeners on 127.0.0.1:0), or one
// site per process in a multi-process deployment (each gdur_site binds its
// configured endpoint and dials its peers, which may boot in any order).
// Only the hosted sites' outbound links exist in a process.
//
// Byte-moving runs on a front::Reactor — the same epoll engine each client
// front door runs. Emulated link delays are not the transport's business:
// LiveCluster holds a delayed frame on the destination site's mailbox
// (live/mailbox.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "front/reactor.h"

namespace gdur::obs {
class ObsPlane;
}

namespace gdur::live {

/// Where a site's inter-site listener lives (multi-process mesh).
struct SiteEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class LiveTransport {
 public:
  /// Called on the reactor thread for every frame that arrives; expected
  /// to post decode+dispatch work to dst's mailbox.
  using Deliver =
      std::function<void(SiteId src, SiteId dst, std::vector<std::uint8_t>)>;

  /// Builds the mesh for the sites this process hosts: all of them when
  /// `self` is kNoSite, else `self` alone. Binds each hosted site's
  /// listener at `peers[s]` (127.0.0.1:0 for every site when `peers` is
  /// empty), dials every other site with bounded retries, each link
  /// announcing its source with a codec::ControlMsg hello, and accepts the
  /// inbound links. Blocks until the mesh is complete or 30 s pass (peers
  /// boot in any order); throws std::runtime_error on failure. `plane`
  /// must outlive this object; its site slots count every frame sent
  /// (kMsgsSent, kBytesSent, kMsgBytes).
  LiveTransport(int sites, SiteId self, std::vector<SiteEndpoint> peers,
                obs::ObsPlane& plane, Deliver deliver);

  ~LiveTransport() { stop(); }

  void start() { reactor_.start(); }
  void stop() { reactor_.stop(); }

  /// Queues `body` (type tag + encoded message) on the (src, dst) link and
  /// counts it, length prefix included, in `src`'s plane slot. Takes the
  /// body by value, as Reactor::send_frame does: move it in and it is
  /// never copied. Thread-safe; src != dst (self-sends bypass the
  /// transport), and src must be a site this process hosts.
  void send(SiteId src, SiteId dst, std::vector<std::uint8_t> body);

  /// The byte-moving reactor, exposed so the observability plane can attach
  /// its stats slot and stall-watchdog probes.
  [[nodiscard]] front::Reactor& reactor() { return reactor_; }

 private:
  [[nodiscard]] int link_index(SiteId src, SiteId dst) const {
    return static_cast<int>(src) * sites_ + static_cast<int>(dst);
  }
  void register_inbound(int conn, SiteId src, SiteId dst);

  int sites_;
  obs::ObsPlane& plane_;
  Deliver deliver_;
  front::Reactor reactor_;
  std::vector<int> out_conn_;                   // link index -> conn id
  std::vector<std::pair<SiteId, SiteId>> in_link_;  // conn id -> (src,dst)
};

}  // namespace gdur::live

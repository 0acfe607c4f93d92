// Real-socket transport with the simulator's delivery contract.
//
// Sites are connected by a full mesh of TCP connections, one per ordered
// pair (i, j): site i only ever writes on its (i, j) connection and site j
// only reads from it, so TCP's per-connection byte stream directly yields
// exactly-once, FIFO-per-link delivery — the contract core::Cluster
// documents for its transport seam.
//
// Two deployment shapes share this class:
//   * Loopback mesh (single process): every site lives in this process;
//     listeners bind 127.0.0.1:0 and the whole mesh is wired synchronously
//     in the constructor (PR 4 behavior).
//   * External mesh (multi-process, one gdur_site process per site): this
//     process IS site `self`; it binds the configured port, then dials every
//     peer with bounded retries (peers boot in any order) and accepts the
//     peers' inbound links. Only `self`'s outbound links exist here.
//
// Byte-moving runs on front::Reactor (epoll, poll() fallback) — the same
// engine the client front door uses.
//
// Link delay emulation: a received frame can be held on a real-clock timer
// wheel before dispatch. The emulated delay is constant per link, so
// deadlines on one link are monotone and the wheel's FIFO-within-slot
// ordering preserves the link FIFO contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "front/reactor.h"
#include "live/timer_wheel.h"

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
  /// Called (on the reactor or timer thread) once a frame is due at its
  /// destination; expected to post decode+dispatch work to dst's mailbox.
  using Deliver =
      std::function<void(SiteId src, SiteId dst, std::vector<std::uint8_t>)>;

  /// Establishes the in-process loopback mesh synchronously: one listener
  /// per site on 127.0.0.1:0, then every ordered pair connects and
  /// identifies itself with a codec::ControlMsg hello. Throws
  /// std::runtime_error on failure. `wheel` must be started before start()
  /// and outlive this object; so must `plane`, whose site slots count every
  /// frame sent (kMsgsSent, kBytesSent, kMsgBytes).
  LiveTransport(int sites, TimerWheel& wheel, obs::ObsPlane& plane,
                Deliver deliver);

  /// External (multi-process) mesh: this process is site `self`. Binds
  /// `peers[self]`, dials every other peer with bounded retries (they may
  /// not have booted yet), and accepts their inbound links. Blocks until
  /// the mesh is complete or the deadline passes; throws on failure.
  LiveTransport(int sites, SiteId self, const std::vector<SiteEndpoint>& peers,
                TimerWheel& wheel, obs::ObsPlane& plane, Deliver deliver,
                std::chrono::seconds connect_deadline = std::chrono::seconds(30));

  ~LiveTransport() { stop(); }

  /// Per-link one-way delay to emulate (0 = deliver on arrival).
  void set_link_delay(SiteId src, SiteId dst, std::chrono::nanoseconds d);

  void start() { reactor_.start(); }
  void stop() { reactor_.stop(); }

  /// Queues `body` (type tag + encoded message) on the (src, dst) link and
  /// counts it, length prefix included, in `src`'s plane slot.
  /// Thread-safe; src != dst (self-sends bypass the transport). In the
  /// external mesh src must be `self`.
  void send(SiteId src, SiteId dst, const std::vector<std::uint8_t>& body);

  /// The byte-moving reactor, exposed so the observability plane can attach
  /// its stats slot and stall-watchdog probes.
  [[nodiscard]] front::Reactor& reactor() { return reactor_; }

 private:
  [[nodiscard]] int link_index(SiteId src, SiteId dst) const {
    return static_cast<int>(src) * sites_ + static_cast<int>(dst);
  }
  void install_frame_handler();
  void register_inbound(int conn, SiteId src, SiteId dst);

  int sites_;
  TimerWheel& wheel_;
  obs::ObsPlane& plane_;
  Deliver deliver_;
  front::Reactor reactor_;
  std::vector<int> out_conn_;                   // link index -> conn id
  std::vector<std::pair<SiteId, SiteId>> in_link_;  // conn id -> (src,dst)
  std::vector<std::chrono::nanoseconds> delay_;  // link index -> delay
};

}  // namespace gdur::live

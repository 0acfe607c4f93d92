// The deployment as the group-communication primitives see it.
//
// comm/ never touches a transport or a scheduler: a primitive sends plain
// net::Msg structs and arms timers through this port, and the deployment
// hands every arriving message back to the primitive's on() handler for its
// kind. core::Cluster implements the port for both backends — the simulated
// Transport and the live sockets — so AM-Cast, AMpw-Cast and AB-Cast run
// unchanged on either.
#pragma once

#include <functional>

#include "common/sim_time.h"
#include "common/task.h"
#include "common/types.h"
#include "net/msg.h"

namespace gdur::obs {
class ObsPlane;
}

namespace gdur::comm {

class Port {
 public:
  /// Ships `m` from `from` to `to`: exactly once, FIFO per (from, to) link.
  /// A self-send is queued like any other message, never run inline.
  virtual void send(SiteId from, SiteId to, net::Msg m) = 0;
  /// Runs `fn` on site `at`'s execution context after `delay`.
  virtual void run_after(SiteId at, SimDuration delay, Task fn) = 0;
  /// Is site `s` crashed right now?
  [[nodiscard]] virtual bool site_down(SiteId s) const = 0;
  /// True when the deployment can lose messages (a fault plan is
  /// installed): the ordering layer then re-requests what went missing.
  [[nodiscard]] virtual bool recovery_enabled() const = 0;
  /// Observability plane the primitives record into.
  [[nodiscard]] virtual obs::ObsPlane& plane() const = 0;
  /// Current time, for flight-recorder entries.
  [[nodiscard]] virtual SimTime now() const = 0;

 protected:
  ~Port() = default;
};

/// Invoked when `msg` is delivered at site `at`. Delivery order is the
/// whole point of each primitive; see the class comments.
using DeliverFn = std::function<void(SiteId at, const net::McastMsg& msg)>;

/// True when primitive P handles message kind M, i.e. has on(from, at, M).
template <class P, class M>
concept Handles = requires(P& p, SiteId s, const M& m) { p.on(s, s, m); };

}  // namespace gdur::comm

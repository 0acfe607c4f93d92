// Simulated point-to-point transport.
//
// A message is delivered by running a closure at the destination site after
// (one-way latency + transmission delay), and both endpoints are charged CPU
// time for send/receive plus (un)marshaling proportional to the message
// size. Payloads travel inside the closure, so no real serialization is
// needed; sizes are accounted analytically (see net::wire for the sizing
// rules).
//
// Channels are FIFO per (src, dst) pair, like TCP connections: a message
// never overtakes an earlier one on the same link. Several protocols
// (S-DUR's pairwise ordering, Walter's background propagation) rely on this.
//
// Fault injection (sim/fault): when a FaultInjector is installed, every
// send runs through an ack/retransmit layer. A delivery attempt that is
// dropped (lossy link), blocked (partition) or addressed to a crashed site
// is retried after an exponentially backed-off RTO; each retry charges the
// sender CPU and is counted in the sender's plane slot (kRetransmits). The
// link-clock FIFO horizon is applied to the *final* delivery instant, so the
// exactly-once FIFO contract survives loss and duplication — exactly what
// TCP gives the paper's middleware. A message still undelivered after
// `give_up` is abandoned (broken connection); protocol-level timeouts and
// retries (core::Replica) take over from there.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/task.h"
#include "common/types.h"
#include "net/topology.h"
#include "obs/events.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace gdur::obs {
class TraceRecorder;
class ObsPlane;
}

namespace gdur::net {

class Transport {
 public:
  using Handler = Task;

  /// `plane` receives the per-site message and fault counters, the only
  /// tally of them; not owned, must outlive the transport.
  Transport(sim::Simulator& simulator, Topology topology, obs::ObsPlane& plane,
            sim::CostModel cost = {}, int cores_per_site = 4,
            std::uint64_t jitter_seed = 11);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const sim::CostModel& cost() const { return cost_; }
  [[nodiscard]] int sites() const { return topo_.sites(); }

  /// CPU resource of a site, for protocol work not tied to a message.
  [[nodiscard]] sim::CpuResource& cpu(SiteId s) { return *cpus_[s]; }

  /// Sends `bytes` from `src` to `dst`; runs `handler` at the destination
  /// once the message has been received and unmarshaled. src == dst is a
  /// local loopback (no latency, but still a queued CPU job, preserving
  /// the no-reentrancy discipline of the protocol handlers). `cls` tags the
  /// message for the observability layer; it never affects delivery.
  void send(SiteId src, SiteId dst, std::uint64_t bytes, Handler handler,
            obs::MsgClass cls = obs::MsgClass::kControl);

  /// Client machine -> replica request (client CPUs are not modeled).
  void client_send(SiteId dst, std::uint64_t bytes, Handler handler);

  /// Replica -> client machine response.
  void send_to_client(SiteId src, std::uint64_t bytes, Handler handler);

  /// Runs `work` on `site`'s CPU after `service` time, FIFO with everything
  /// else that site does.
  void local_work(SiteId site, SimDuration service, Handler work) {
    cpu(site).submit(service, std::move(work));
  }

  /// Messages and bytes sent since the last reset_accounting() (the
  /// message-complexity window of §5.3): the growth of the plane's
  /// kMsgsSent / kBytesSent totals.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  /// Opens a new window: remembers the plane's totals (the plane itself is
  /// never reset) and zeroes every site's CPU busy time.
  void reset_accounting();

  /// Jitter amplitude as a fraction of the link latency (default 2%).
  void set_jitter(double fraction) { jitter_ = fraction; }

  /// *Pauses* site `s` until `until` — a benign outage (process freeze, VM
  /// migration), NOT a crash: the site performs no work meanwhile, messages
  /// addressed to it are buffered and processed after it comes back, and
  /// nothing is lost. For a crash with state loss use a sim::FaultPlan
  /// crash window (or CpuResource::crash_until directly).
  void pause_site(SiteId s, SimTime until) { cpu(s).block_until(until); }

  /// Installs a fault injector; `fi` may be nullptr to disable. Not owned.
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }
  [[nodiscard]] sim::FaultInjector* fault_injector() const { return fault_; }

  /// Installs a trace recorder (obs); nullptr disables. Not owned. Every
  /// hook is a null check — tracing never perturbs the simulation.
  void set_trace(obs::TraceRecorder* tr) { trace_ = tr; }

 private:
  /// Counts one message of `bytes` sent by (or, from a client, to) `site`.
  void count(SiteId site, std::uint64_t bytes);

  [[nodiscard]] SimDuration link_delay(SiteId src, SiteId dst,
                                       std::uint64_t bytes);

  /// Walks the retransmit schedule under the installed fault injector.
  /// Returns the instant the message finally reaches `dst` (before FIFO
  /// serialization), or sim::kNever if the sender gives up.
  [[nodiscard]] SimTime resolve_delivery(SiteId src, SiteId dst,
                                         std::uint64_t bytes,
                                         SimTime departure);

  sim::Simulator& sim_;
  Topology topo_;
  sim::CostModel cost_;
  std::vector<std::unique_ptr<sim::CpuResource>> cpus_;
  std::vector<SimTime> link_clock_;  // arrival FIFO horizon per (src,dst)
  std::vector<SimTime> recv_clock_;  // receive-processing horizon per link
  Rng jitter_rng_;
  /// Separate stream for retransmit-delay jitter: the backoff schedule must
  /// not consume link-jitter draws (and vice versa), or installing a fault
  /// plan would shift every subsequent link delay.
  Rng retransmit_rng_;
  double jitter_ = 0.02;
  sim::FaultInjector* fault_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::ObsPlane& plane_;
  std::uint64_t window_msgs0_ = 0;   // plane totals at reset_accounting()
  std::uint64_t window_bytes0_ = 0;
};

}  // namespace gdur::net

#include "net/transport.h"

#include <algorithm>
#include <memory>

#include "obs/plane.h"
#include "obs/trace.h"

namespace gdur::net {

Transport::Transport(sim::Simulator& simulator, Topology topology,
                     obs::ObsPlane& plane, sim::CostModel cost,
                     int cores_per_site, std::uint64_t jitter_seed)
    : sim_(simulator),
      topo_(std::move(topology)),
      cost_(cost),
      link_clock_(static_cast<std::size_t>(topo_.sites()) * topo_.sites(), 0),
      recv_clock_(static_cast<std::size_t>(topo_.sites()) * topo_.sites(), 0),
      jitter_rng_(jitter_seed),
      retransmit_rng_(mix64(jitter_seed ^ 0x7265747261'6e73ull)),
      plane_(plane) {
  cpus_.reserve(static_cast<std::size_t>(topo_.sites()));
  for (int s = 0; s < topo_.sites(); ++s)
    cpus_.push_back(std::make_unique<sim::CpuResource>(sim_, cores_per_site));
}

void Transport::count(SiteId site, std::uint64_t bytes) {
  auto& slot = plane_.slot(site);
  slot.record(obs::Counter::kMsgsSent);
  slot.record(obs::Counter::kBytesSent, bytes);
  slot.record_value(obs::Hist::kMsgBytes, bytes);
}

SimDuration Transport::link_delay(SiteId src, SiteId dst, std::uint64_t bytes) {
  const SimDuration base = topo_.latency(src, dst);
  const double u = 2.0 * jitter_rng_.next_double() - 1.0;  // [-1, 1)
  const auto jittered =
      base + static_cast<SimDuration>(double(base) * jitter_ * u);
  const auto transmission = static_cast<SimDuration>(
      double(bytes) / topo_.bandwidth_bps() * 1e9);
  return jittered + transmission;
}

SimTime Transport::resolve_delivery(SiteId src, SiteId dst,
                                    std::uint64_t bytes, SimTime departure) {
  const auto& rc = fault_->retransmit();
  SimTime attempt = departure;
  SimDuration rto = std::min(rc.initial_rto, rc.max_rto);
  while (true) {
    const SimTime arrival = attempt + link_delay(src, dst, bytes);
    if (fault_->attempt(src, dst, attempt, arrival)) {
      if (fault_->duplicate(src, dst, attempt)) {
        // The receiver spends a dispatch on the duplicate before its
        // sequence number discards it; logically it is delivered once.
        cpu(dst).charge_after(arrival, cost_.msg_recv);
      }
      return arrival;
    }
    if (trace_ != nullptr)
      trace_->fault(obs::FaultKind::kDrop, src, dst, attempt);
    plane_.slot(src).record(obs::Counter::kMsgsDropped);
    plane_.ring(src).append("msg_drop", attempt, src, dst);
    // The ack timer fires `rto` (±rc.jitter, to desynchronize retry storms)
    // after the attempt; retransmit then. The backoff stays capped at
    // max_rto so a sender keeps probing a long partition instead of backing
    // off into uselessness.
    const double u = 2.0 * retransmit_rng_.next_double() - 1.0;  // [-1, 1)
    attempt += std::max<SimDuration>(
        1, rto + static_cast<SimDuration>(double(rto) * rc.jitter * u));
    rto = std::min(static_cast<SimDuration>(double(rto) * rc.backoff),
                   rc.max_rto);
    if (attempt - departure > rc.give_up) {
      if (trace_ != nullptr)
        trace_->fault(obs::FaultKind::kExpire, src, dst, attempt);
      plane_.slot(src).record(obs::Counter::kMsgsExpired);
      plane_.ring(src).append("msg_expire", attempt, src, dst);
      return sim::kNever;
    }
    if (trace_ != nullptr)
      trace_->fault(obs::FaultKind::kRetransmit, src, dst, attempt);
    plane_.slot(src).record(obs::Counter::kRetransmits);
    cpu(src).charge_after(attempt, cost_.msg_send);
  }
}

void Transport::send(SiteId src, SiteId dst, std::uint64_t bytes,
                     Handler handler, obs::MsgClass cls) {
  if (fault_ != nullptr && cpu(src).down_at(sim_.now())) return;  // dead site
  count(src, bytes);
  const SimDuration send_cost = cost_.msg_send + cost_.marshal(bytes);
  const SimDuration recv_cost = cost_.msg_recv + cost_.unmarshal(bytes);
  // The departure instant is known synchronously (deterministic CPU model),
  // so link FIFO order is fixed at call time: two sends on one link are
  // received in the order they were issued, like one TCP connection. Under
  // fault injection the whole retransmit schedule resolves here too, which
  // keeps the FIFO horizon exact over lossy links.
  const SimTime departure = cpu(src).charge(send_cost);
  // The handler waits parked; the hops below carry its handle.
  const sim::Simulator::Handle h = sim_.park(std::move(handler));
  if (src == dst) {
    if (trace_ != nullptr)
      trace_->message(cls, src, dst, departure, departure);
    sim_.at(departure,
            [this, dst, recv_cost, h] { cpu(dst).submit(recv_cost, h); });
    return;
  }
  const auto idx = src * static_cast<SiteId>(topo_.sites()) + dst;
  SimTime reach = departure + link_delay(src, dst, bytes);
  if (fault_ != nullptr) {
    reach = resolve_delivery(src, dst, bytes, departure);
    if (reach == sim::kNever) {  // connection declared broken
      sim_.drop(h);
      return;
    }
  }
  const SimTime arrival = std::max(reach, link_clock_[idx]);
  link_clock_[idx] = arrival;
  if (trace_ != nullptr)
    trace_->message(cls, src, dst, departure, arrival);
  sim_.at(arrival, [this, idx, dst, recv_cost, h] {
    // One connection is drained by one receiver thread: handlers for the
    // same link run in arrival order.
    auto& c = cpu(dst);
    if (fault_ != nullptr && c.down_at(sim_.now())) {
      // FIFO serialization pushed the delivery into a crash window: the
      // receiver acknowledged at the transport level but lost the message
      // before the application saw it. Protocol retries must recover it.
      sim_.drop(h);
      if (trace_ != nullptr)
        trace_->fault(obs::FaultKind::kExpire, dst, kNoSite, sim_.now());
      plane_.slot(dst).record(obs::Counter::kMsgsExpired);
      plane_.ring(dst).append("msg_lost_in_crash", sim_.now(), dst);
      return;
    }
    const SimTime done = c.charge_after(recv_clock_[idx], recv_cost);
    recv_clock_[idx] = done;
    if (fault_ == nullptr) {
      sim_.at(done, h);
      return;
    }
    sim_.at(done, [this, dst, e = c.epoch(), h] {
      if (cpu(dst).epoch() == e) {
        sim_.run_parked(h);
        return;
      }
      sim_.drop(h);  // crashed while the handler was queued
      plane_.slot(dst).record(obs::Counter::kMsgsExpired);
    });
  });
}

void Transport::client_send(SiteId dst, std::uint64_t bytes, Handler handler) {
  count(dst, bytes);
  if (trace_ != nullptr)
    trace_->message(obs::MsgClass::kClientReq, kNoSite, dst, sim_.now(),
                    sim_.now() + topo_.client_latency());
  const SimDuration recv_cost = cost_.msg_recv + cost_.unmarshal(bytes);
  sim_.after(topo_.client_latency(),
             [this, dst, recv_cost, h = sim_.park(std::move(handler))] {
               cpu(dst).submit(recv_cost, h);
             });
}

void Transport::send_to_client(SiteId src, std::uint64_t bytes,
                               Handler handler) {
  count(src, bytes);
  if (trace_ != nullptr)
    trace_->message(obs::MsgClass::kClientResp, src, kNoSite, sim_.now(),
                    sim_.now() + topo_.client_latency());
  // The reply leaves once its send is charged, unless the site crashes
  // first (the same epoch guard as CpuResource::submit).
  auto& c = cpu(src);
  if (c.down_at(sim_.now())) return;
  const SimDuration send_cost = cost_.msg_send + cost_.marshal(bytes);
  sim_.at(c.charge(send_cost),
          [this, src, e = c.epoch(), h = sim_.park(std::move(handler))] {
            if (cpu(src).epoch() == e)
              sim_.after(topo_.client_latency(), h);
            else
              sim_.drop(h);
          });
}

std::uint64_t Transport::messages_sent() const {
  return plane_.total(obs::Counter::kMsgsSent) - window_msgs0_;
}

std::uint64_t Transport::bytes_sent() const {
  return plane_.total(obs::Counter::kBytesSent) - window_bytes0_;
}

void Transport::reset_accounting() {
  window_msgs0_ = plane_.total(obs::Counter::kMsgsSent);
  window_bytes0_ = plane_.total(obs::Counter::kBytesSent);
  for (auto& c : cpus_) c->reset_accounting();
}

}  // namespace gdur::net

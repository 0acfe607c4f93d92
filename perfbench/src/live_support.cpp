#include "live_support.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace perfbench {

using namespace gdur;

Attendant::Attendant(live::LiveCluster& cl, obs::ObsPlane& plane, bool probe)
    : cl_(cl),
      plane_(plane),
      probe_(probe),
      waits_(static_cast<std::size_t>(cl.sites())) {
  thread_ = std::thread([this] { loop(); });
}

Attendant::~Attendant() { finish(); }

void Attendant::finish() {
  if (!thread_.joinable()) return;
  running_.store(false, std::memory_order_release);
  thread_.join();
}

void Attendant::loop() {
  // Untraced runs only scan, so they wake 40 times a second, not 1000.
  const auto tick = std::chrono::milliseconds(probe_ ? 1 : 25);
  const int scan_every = probe_ ? 25 : 1;
  auto next = Clock::now() + tick;
  int ticks = 0;
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(next);
    next += tick;
    if (probe_) {
      for (SiteId s = 0; s < static_cast<SiteId>(waits_.size()); ++s) {
        const std::int64_t at = ns_since(epoch_);
        cl_.post(s, [this, s, at] { waits_[s].add(ns_since(epoch_) - at); });
        ++posted_;
      }
    }
    if (++ticks % scan_every == 0) plane_.watchdog().scan(cl_.now());
  }
  plane_.watchdog().scan(cl_.now());
}

harness::LatencyStat Attendant::mailbox_wait() const {
  harness::LatencyStat all;
  for (const auto& w : waits_) all.merge_from(w);
  return all;
}

LiveCounters LiveCounters::read(live::LiveCluster& cl, obs::ObsPlane& plane,
                                int sites) {
  LiveCounters c;
  c.queue_depth.assign(obs::kHistBuckets, 0);
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s) {
    const auto& slot = plane.slot(s);
    c.mailbox_tasks += slot.value(obs::Counter::kMailboxTasks);
    for (std::size_t b = 0; b < obs::kHistBuckets; ++b)
      c.queue_depth[b] += slot.bucket(obs::Hist::kQueueDepth, b);
  }
  c.loop_wakeups = plane.runtime_slot().value(obs::Counter::kLoopWakeups);
  c.timer_fires = plane.runtime_slot().value(obs::Counter::kTimerFires);
  c.frames = cl.live_messages();
  c.bytes = cl.live_bytes();
  if (auto* tr = cl.trace()) c.votes = tr->msg_count(obs::MsgClass::kVote);
  c.watchdog_trips = plane.watchdog().trips();
  c.invariant_violations = plane.invariants().violations();
  return c;
}

LiveCounters& LiveCounters::operator+=(const LiveCounters& o) {
  mailbox_tasks += o.mailbox_tasks;
  loop_wakeups += o.loop_wakeups;
  timer_fires += o.timer_fires;
  frames += o.frames;
  bytes += o.bytes;
  votes += o.votes;
  queue_depth.resize(std::max(queue_depth.size(), o.queue_depth.size()), 0);
  for (std::size_t b = 0; b < o.queue_depth.size(); ++b)
    queue_depth[b] += o.queue_depth[b];
  watchdog_trips += o.watchdog_trips;
  invariant_violations += o.invariant_violations;
  return *this;
}

void gate_plane(Result& r, const LiveCounters& c) {
  if (c.watchdog_trips > 0)
    r.fail("watchdog tripped " + std::to_string(c.watchdog_trips) + " times");
  if (c.invariant_violations > 0)
    r.fail("invariant monitor: " + std::to_string(c.invariant_violations) +
           " violations");
}

void wait_until(const std::function<bool()>& done, double timeout_s) {
  const auto t0 = Clock::now();
  while (!done() && seconds_since(t0) < timeout_s)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void set_live_layers(Result& r, const LiveCounters& c,
                     const harness::LatencyStat& wait, std::uint64_t probes,
                     std::uint64_t txns, std::uint64_t commits) {
  const auto per = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  r.set_layer("live.mailbox_wait_p50_us", wait.percentile_ms(0.5) * 1e3);
  r.set_layer("live.mailbox_wait_p99_us", wait.percentile_ms(0.99) * 1e3);
  r.set_layer("live.mailbox_tasks_per_txn",
              per(c.mailbox_tasks > probes ? c.mailbox_tasks - probes : 0,
                  txns));
  r.set_layer("live.loop_wakeups_per_txn", per(c.loop_wakeups, txns));
  r.set_layer("live.timer_fires_per_txn", per(c.timer_fires, txns));
  r.set_layer("net.frames_per_commit", per(c.frames, commits));
  r.set_layer("net.bytes_per_commit", per(c.bytes, commits));
  r.set_layer("net.votes_per_commit", per(c.votes, commits));
  r.set_layer("core.queue_depth_p99", log2_bucket_p99(c.queue_depth));
}

}  // namespace perfbench

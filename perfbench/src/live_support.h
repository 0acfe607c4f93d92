// Pieces shared by the two live workloads: a background attendant thread
// (stall-watchdog scans, mailbox-wait probes) and the ObsPlane / transport
// counter readout behind the live per-layer metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "live/live_cluster.h"
#include "obs/plane.h"

namespace perfbench {

/// Scans the stall watchdog every 25 ms. With `probe`, also posts a
/// timestamped closure through LiveCluster::post to every site about every
/// millisecond; the closure records how long it sat in the mailbox.
///
/// Lifetime: call finish() before stopping the cluster and keep the object
/// alive until the cluster has stopped (queued probes write into it).
class Attendant {
 public:
  Attendant(gdur::live::LiveCluster& cl, gdur::obs::ObsPlane& plane,
            bool probe);
  ~Attendant();
  Attendant(const Attendant&) = delete;
  Attendant& operator=(const Attendant&) = delete;

  void finish();

  /// Merged probe waits; read only after the cluster stopped.
  [[nodiscard]] gdur::harness::LatencyStat mailbox_wait() const;
  [[nodiscard]] std::uint64_t probes_posted() const { return posted_; }

 private:
  void loop();

  gdur::live::LiveCluster& cl_;
  gdur::obs::ObsPlane& plane_;
  bool probe_;
  Clock::time_point epoch_ = Clock::now();
  /// One stat per site, written only by that site's thread.
  std::vector<gdur::harness::LatencyStat> waits_;
  std::uint64_t posted_ = 0;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

/// Whole-run totals of the live runtime's counters.
struct LiveCounters {
  std::uint64_t mailbox_tasks = 0;
  std::uint64_t loop_wakeups = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t votes = 0;  // traced runs only
  std::vector<std::uint64_t> queue_depth;  // log2 buckets, all sites
  std::uint64_t watchdog_trips = 0;
  std::uint64_t invariant_violations = 0;

  static LiveCounters read(gdur::live::LiveCluster& cl,
                           gdur::obs::ObsPlane& plane, int sites);
  LiveCounters& operator+=(const LiveCounters& o);
};

/// Fails `r` on any watchdog trip or invariant violation.
void gate_plane(Result& r, const LiveCounters& c);

/// Sets the live.* / net.* / core.queue_depth_p99 layer metrics. The
/// attendant's `probes` (mailbox probe tasks) are subtracted from the
/// task count; `txns` and `commits` are whole-run totals.
void set_live_layers(Result& r, const LiveCounters& c,
                     const gdur::harness::LatencyStat& mailbox_wait,
                     std::uint64_t probes, std::uint64_t txns,
                     std::uint64_t commits);

/// Polls `done` every millisecond for up to `timeout_s`.
void wait_until(const std::function<bool()>& done, double timeout_s);

}  // namespace perfbench

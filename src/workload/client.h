// Workload drivers.
//
// ClientActor — closed-loop client thread (§8.1): one interactive
// transaction at a time against its co-located G-DUR instance, retrying
// immediately after aborts, exactly like the paper's YCSB client threads.
// It runs on either backend: it starts through Cluster::run_after and
// relaunches from its own completion callback, so in live mode it lives on
// its site's mailbox thread.
//
// OpenLoopSource — an ArrivalSchedule on the simulator's clock: Poisson
// arrivals at a fixed offered rate, independent of completions. Closed
// loops self-throttle at saturation; the open loop exposes the true
// overload behavior (queues and latencies grow without bound past
// capacity).
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "core/cluster.h"
#include "harness/metrics.h"
#include "workload/workload.h"

namespace gdur::workload {

/// Observer invoked at every transaction termination with the full record.
using TxnObserver = std::function<void(const core::TxnRecord&, bool committed)>;

/// Drives one interactive transaction through the cluster API and records
/// its outcome into `metrics`; `done` runs after the terminal response.
/// The flow object keeps itself alive for the duration. Its latency is
/// timed from `intended` — the arrival's due time on the cluster's clock —
/// or from now, so queueing between the two counts as latency. Any thread
/// may call this: the first hop (Cluster::begin) posts to the coordinator.
void run_transaction(core::Cluster& cluster, SiteId site,
                     std::shared_ptr<const TxnProfile> profile,
                     harness::Metrics& metrics, const TxnObserver& observer,
                     std::function<void()> done,
                     std::optional<SimTime> intended = std::nullopt);

class ClientActor {
 public:
  ClientActor(core::Cluster& cluster, SiteId site, const WorkloadSpec& spec,
              harness::Metrics& metrics, std::uint64_t seed);

  /// Kicks off the closed loop at cluster time `at` (now, if already past).
  void start(SimTime at);
  /// Launches no further transaction; the one in flight still finishes.
  /// Any thread.
  void stop() { stopped_.store(true, std::memory_order_release); }
  /// True once stop() took effect and the last transaction has finished.
  /// Any thread.
  [[nodiscard]] bool idle() const {
    return idle_.load(std::memory_order_acquire);
  }

  void set_observer(TxnObserver obs) { observer_ = std::move(obs); }

  [[nodiscard]] std::uint64_t txns_run() const { return txns_run_; }

 private:
  void run_one();

  core::Cluster& cl_;
  SiteId site_;
  Generator gen_;
  harness::Metrics& metrics_;
  TxnObserver observer_;
  std::uint64_t txns_run_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> idle_{false};
};

class OpenLoopSource {
 public:
  /// `rate_tps` transactions per second, Poisson-distributed arrivals, all
  /// coordinated by `site`.
  OpenLoopSource(core::Cluster& cluster, SiteId site, const WorkloadSpec& spec,
                 harness::Metrics& metrics, double rate_tps,
                 std::uint64_t seed);

  void start(SimTime at);
  /// No further arrivals after `at` (in-flight transactions finish).
  void stop_at(SimTime at) { stop_at_ = at; }

  [[nodiscard]] std::uint64_t offered() const { return offered_; }

 private:
  void arrive();

  core::Cluster& cl_;
  SiteId site_;
  Generator gen_;
  harness::Metrics& metrics_;
  ArrivalSchedule arrivals_;
  SimTime stop_at_ = std::numeric_limits<SimTime>::max();
  std::uint64_t offered_ = 0;
};

}  // namespace gdur::workload

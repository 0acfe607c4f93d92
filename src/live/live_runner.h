// Live loopback harness: drives the simulator's own workload drivers
// against a LiveCluster — workload::ClientActor closed loops, or one
// workload::ArrivalSchedule paced on the wall clock (live/pacer.h) — records
// per-site metrics and a checkable history, and verifies each protocol's
// claimed criterion: the live counterpart of harness::run_experiment.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "harness/metrics.h"
#include "obs/plane.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "workload/workload.h"

namespace gdur::live {

struct LiveRunConfig {
  std::string protocol = "P-Store";
  int sites = 3;
  /// Closed-loop client flows, assigned round-robin to sites. Each flow
  /// keeps exactly one interactive transaction in flight (§8.1's YCSB
  /// client threads). Ignored when open_loop_tps > 0.
  int clients = 16;
  /// Measured wall-clock run duration.
  double secs = 2.0;
  workload::WorkloadSpec workload = workload::WorkloadSpec::A(0.8);
  std::uint64_t objects_per_site = 4096;
  int partitions_per_site = 2;
  int replication = 1;
  std::uint64_t seed = 42;
  /// Keyspace shards per replica (DESIGN.md §14). > 1 spawns per-(site,
  /// shard) certifier worker threads in the live runtime; 1 keeps the
  /// serial single-thread-per-site pipeline.
  int shards_per_site = 1;
  /// Certifier workers wait out the analytic certification service time
  /// before computing the verdict (cores-scaling benchmark mode; see
  /// EXPERIMENTS.md). With shards_per_site = 1 the wait stalls the site
  /// thread — the serial baseline; with > 1 it stalls only the shard's
  /// worker, so disjoint-footprint certifications overlap.
  bool live_certify_model = false;
  /// Analytic CPU service times (certify_base &c.). The live runtime spends
  /// real CPU for everything else; this model only drives the
  /// live_certify_model waits and the trace annotations.
  sim::CostModel cost{};
  /// Poisson arrivals at this total offered rate instead of closed loops
  /// (0 = closed loop). One pacer on the calling thread sends each arrival
  /// to a uniformly drawn site, so each site's stream is Poisson at
  /// rate / sites.
  double open_loop_tps = 0.0;
  /// Per-destination vote/ack coalescing into kBatch frames (see
  /// LiveConfig::coalesce).
  bool coalesce = false;
  /// Emulated link delay = topology latency × this (see LiveConfig).
  double delay_scale = 0.0;
  /// Verify the recorded history against the protocol's criterion.
  bool check = true;
  obs::TraceRecorder* trace = nullptr;
  /// Production observability plane (telemetry, flight recorder, watchdog,
  /// invariant monitor); nullptr = the cluster's own. Not owned. The run's
  /// PlaneAttendant (below) scans its watchdog and writes the snapshots,
  /// one a second.
  obs::ObsPlane* plane = nullptr;
  std::string snapshot_prefix;
};

struct LiveRunResult {
  std::string protocol;
  std::string criterion;
  harness::Metrics metrics;
  double wall_secs = 0.0;        // measurement window actually elapsed
  /// Commits whose response fell inside the window, per wall second (the
  /// drain's commits are in `metrics` but not here).
  double throughput_tps = 0.0;
  /// Open-loop arrivals due in the window, and those issued (0 for closed
  /// loops): offered ÷ scheduled is the share of the load actually
  /// offered. Latency is timed from each arrival's due time; `lag` is how
  /// late the pacer issued it.
  std::uint64_t scheduled = 0;
  std::uint64_t offered = 0;
  harness::LatencyStat lag;
  bool checker_ok = true;
  std::string checker_detail;
  std::uint64_t messages = 0;  // frames over the live transport
  std::uint64_t bytes = 0;
  std::uint64_t batches = 0;       // kBatch frames sent (coalescing on)
  std::uint64_t batched_msgs = 0;  // messages carried inside them
  /// True when a shutdown signal cut the measurement window short (the run
  /// still drained and checked normally).
  bool interrupted = false;
  /// Closed-loop clients, or open-loop transactions, still in flight when
  /// the 2 s drain grace period expired (0 on a healthy run below the knee).
  int hung_clients = 0;
  /// Observability-plane verdicts, read from the run's plane (all three
  /// are 0 on a healthy run).
  std::uint64_t watchdog_trips = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t flight_dumps = 0;
};

class LiveCluster;

/// Background observability attendant of a running LiveCluster, shared by
/// run_live and the gdur_site process: a thread scans the plane's stall
/// watchdog every 25 ms and, when `snapshot_prefix` is non-empty, writes
/// `<prefix>.json` / `<prefix>.prom` snapshots every `snapshot_every_secs`
/// (the run's time series) and sends flight dumps to `<prefix>.flight.txt`
/// / `<prefix>.flight.trace.json`.
class PlaneAttendant {
 public:
  PlaneAttendant(LiveCluster& cluster, std::string snapshot_prefix,
                 double snapshot_every_secs = 1.0);
  ~PlaneAttendant() { finish(); }
  PlaneAttendant(const PlaneAttendant&) = delete;
  PlaneAttendant& operator=(const PlaneAttendant&) = delete;

  /// Runs one last scan and snapshot, then joins. Call before the
  /// cluster's stop() so the final scan still sees live probes.
  void finish();

 private:
  void loop();
  void snapshot(SimTime now);

  LiveCluster& cl_;
  obs::ObsPlane& plane_;
  std::string prefix_;
  double every_secs_;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

/// The consistency criterion registry protocol `protocol` claims (its
/// ProtocolSpec::criterion).
[[nodiscard]] const char* criterion_of(const std::string& protocol);

/// Builds a LiveCluster for `cfg.protocol`, runs the workload over real
/// loopback sockets for `cfg.secs`, and returns merged metrics + verdict.
LiveRunResult run_live(const LiveRunConfig& cfg);

}  // namespace gdur::live

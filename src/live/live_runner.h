// Live loopback harness: drives the existing workload generators against a
// LiveCluster with closed- or open-loop clients, records per-site metrics
// and a checkable history, and verifies each protocol's claimed criterion —
// the live counterpart of harness::run_experiment.
#pragma once

#include <cstdint>
#include <string>

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
  /// (0 = closed loop).
  double open_loop_tps = 0.0;
  /// Per-destination vote/ack coalescing into kBatch frames (see
  /// LiveConfig::coalesce).
  bool coalesce = false;
  /// Emulated link delay = topology latency × this (see LiveConfig).
  double delay_scale = 0.0;
  /// Verify the recorded history against the protocol's criterion.
  bool check = true;
  /// Grace period for in-flight transactions after the measurement window.
  double drain_secs = 2.0;
  obs::TraceRecorder* trace = nullptr;
  /// Production observability plane (telemetry, flight recorder, watchdog,
  /// invariant monitor); nullptr = the cluster's own. Not owned. A
  /// background thread always scans the watchdog and — if `snapshot_prefix`
  /// is non-empty — periodically writes `<prefix>.json` / `<prefix>.prom`
  /// snapshots and flight dumps to `<prefix>.flight.txt` /
  /// `<prefix>.flight.trace.json`.
  obs::ObsPlane* plane = nullptr;
  double snapshot_every_secs = 1.0;
  std::string snapshot_prefix;
};

struct LiveRunResult {
  std::string protocol;
  std::string criterion;
  harness::Metrics metrics;
  double wall_secs = 0.0;        // measurement window actually elapsed
  double throughput_tps = 0.0;   // committed txns / wall_secs
  /// Arrivals the open-loop sources issued (0 for closed loops): compare
  /// with open_loop_tps × wall_secs to see the load actually offered.
  std::uint64_t offered = 0;
  bool checker_ok = true;
  std::string checker_detail;
  std::uint64_t messages = 0;  // frames over the live transport
  std::uint64_t bytes = 0;
  std::uint64_t batches = 0;       // kBatch frames sent (coalescing on)
  std::uint64_t batched_msgs = 0;  // messages carried inside them
  /// True when a shutdown signal cut the measurement window short (the run
  /// still drained and checked normally).
  bool interrupted = false;
  /// Client flows still in flight when the drain grace period expired
  /// (0 on a healthy run).
  int hung_clients = 0;
  /// Observability-plane verdicts, read from the run's plane (all three
  /// are 0 on a healthy run).
  std::uint64_t watchdog_trips = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t flight_dumps = 0;
};

/// The consistency criterion registry protocol `protocol` claims (its
/// ProtocolSpec::criterion).
[[nodiscard]] const char* criterion_of(const std::string& protocol);

/// Builds a LiveCluster for `cfg.protocol`, runs the workload over real
/// loopback sockets for `cfg.secs`, and returns merged metrics + verdict.
LiveRunResult run_live(const LiveRunConfig& cfg);

}  // namespace gdur::live

// ExperimentRunner — one benchmark point: a cluster, a protocol, a
// workload, N closed-loop clients, a warmup and a measurement window.
// Drives every table and figure reproduction in bench/.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/protocol_spec.h"
#include "harness/metrics.h"
#include "obs/trace.h"
#include "workload/workload.h"

namespace gdur::harness {

struct ExperimentConfig {
  core::ClusterConfig cluster{};
  workload::WorkloadSpec workload{};
  int clients = 64;
  SimDuration warmup = seconds(1);
  SimDuration window = seconds(4);
  std::uint64_t seed = 1;
};

struct RunResult {
  std::string protocol;
  int clients = 0;
  double throughput_tps = 0;
  double upd_term_latency_ms = 0;   // mean termination latency, update txns
  double txn_latency_ms = 0;        // mean full-txn latency, committed txns
  double txn_latency_p50 = 0;
  double txn_latency_p95 = 0;
  double txn_latency_p99 = 0;
  double abort_ratio_pct = 0;       // all txns
  double upd_abort_ratio_pct = 0;   // update txns only
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;          // certification + execution failures
  std::uint64_t exec_failures = 0;    // execution-phase (snapshot) failures
  double cpu_utilization = 0;       // mean across sites over the window
  std::uint64_t messages = 0;
  double events_per_second = 0;     // simulator events in the window
  // Dependability counters (nonzero only under fault injection).
  std::uint64_t msgs_retransmitted = 0;  // extra attempts sent (window)
  std::uint64_t txns_timed_out = 0;      // client gave up waiting
  std::uint64_t timeout_aborts = 0;      // coordinator presumed-abort
  std::uint64_t recoveries = 0;          // crash recoveries completed
  // Abort-reason taxonomy (indexed by obs::AbortReason; always filled).
  std::array<std::uint64_t, obs::kAbortReasonCount> aborts_by_reason{};
  // Per-phase lifecycle breakdown of committed update transactions,
  // indexed by obs::Phase. Populated only when the run had a trace
  // recorder attached (cluster.trace != nullptr); all-zero otherwise.
  std::array<double, obs::kPhaseCount> phase_mean_ms{};
  std::array<double, obs::kPhaseCount> phase_p99_ms{};
  std::array<std::uint64_t, obs::kPhaseCount> phase_count{};

  [[nodiscard]] bool has_phase_breakdown() const {
    for (std::uint64_t c : phase_count)
      if (c > 0) return true;
    return false;
  }
};

/// Runs one experiment point. Deterministic in (spec, cfg).
RunResult run_experiment(const core::ProtocolSpec& spec,
                         const ExperimentConfig& cfg);

/// Runs a load sweep (one RunResult per clients value).
std::vector<RunResult> run_sweep(const core::ProtocolSpec& spec,
                                 ExperimentConfig cfg,
                                 const std::vector<int>& client_counts);

/// Pretty-prints a result table (gnuplot-friendly columns).
void print_header(const std::string& title);
void print_result(const RunResult& r);
/// Per-phase mean/p99 table (one row per lifecycle phase that occurred);
/// prints nothing when the result has no phase data.
void print_phase_breakdown(const RunResult& r);

}  // namespace gdur::harness

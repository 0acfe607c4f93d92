// Shared vocabulary of the repository benchmark: run options, the result
// record every workload fills, the metric catalog, and small measurement
// helpers. Each workload lives in its own translation unit and drives the
// engine only through its public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: an untraced pass, then a traced pass of the same shape
  /// and seed.
  bool trace = false;
  /// Scaled-down shapes for a quick end-to-end check of every code path.
  bool smoke = false;
  /// Directory for state kept across runs of one source tree (the sim
  /// determinism record); the caller names it after the tree's digest, so
  /// a changed tree starts a fresh record. Empty = no cross-run check.
  std::string state_dir;
};

/// Set-ups timed per run (the last one serves the run); setup_s reports
/// their median, since one set-up takes only micro- to milliseconds.
inline int setup_reps(const Options& opt) { return opt.smoke ? 2 : 25; }

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `e2e` and `layers` start out holding every catalog
/// metric at 0 so each run reports the full set; a workload overwrites the
/// ones it measures (layers it does not exercise stay 0: flat by design).
struct Result {
  Result();

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  /// Printed for reference, never gated (e.g. simulated-time outputs).
  std::map<std::string, double> reference;
  std::map<std::string, std::string> config;

  void fail(const std::string& why);
  void set_e2e(const std::string& name, double v);
  void set_layer(const std::string& name, double v);
};

Result run_front_open(const Options& opt);
Result run_engine_closed(const Options& opt);
Result run_sim_fig3(const Options& opt);
/// Benchmark self-tests; returns the number of failed checks.
int run_self_test();

// --- measurement helpers ------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Latencies of a whole measured window, kept as raw samples so
/// percentiles are exact rather than histogram buckets.
struct LatencySamples {
  /// Committed-request latencies in ns.
  std::vector<std::int64_t> ns;
  /// Requests that never got an answer: each counts as an infinite
  /// latency, and a percentile landing on one reads `cap_ms`.
  std::uint64_t failed = 0;

  void merge_from(const LatencySamples& o);
  /// Nearest-rank percentile over samples and failures, in ms.
  [[nodiscard]] double percentile_ms(double q, double cap_ms) const;
};

/// obs::Hist kQueueDepth (log2 buckets) p99 across the given stats slots'
/// bucket counts, as the upper edge of the bucket holding the 99th sample.
double log2_bucket_p99(const std::vector<std::uint64_t>& buckets);

/// Latency budget of committed update transactions, fed by a
/// TraceRecorder phase sink (which the recorder calls under its own lock).
struct PhaseBudget {
  gdur::harness::Metrics phases;  // per-phase stats over occurrences
  /// Submit → decision of transactions whose coordinator took no part in
  /// their termination (no local termination anchors exist for them).
  gdur::harness::LatencyStat remote_term;
  double tiled_ns = 0;            // Σ over txns of Σ tiling phases
  double e2e_ns = 0;              // Σ over txns of begin → final response
  std::uint64_t txns = 0;

  void add(const gdur::obs::TxnPhaseReport& r);
};

/// Fills the per-phase layer metrics (mean and p99 of each obs::Phase) and
/// core.phase_sum_gap_pct = |Σ tile means − e2e mean| / e2e mean, both
/// taken over the same committed update transactions.
void set_phase_layers(Result& r, const PhaseBudget& b);

}  // namespace perfbench

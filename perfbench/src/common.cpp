#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "bench.h"
#include "obs/events.h"

namespace perfbench {

namespace {

/// End-to-end metrics: every run with tracing off reports all of them.
/// (txn_p99_ms is per-layer: a VM's vCPU freezes move it too much to gate.)
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"txn_p50_ms", "ms"},
    {"committed_tps", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// obs::Phase tiles reported per layer, under the module that owns them.
struct PhaseLayer {
  gdur::obs::Phase phase;
  const char* name;
};
const PhaseLayer kPhaseLayers[] = {
    {gdur::obs::Phase::kExecute, "core.execute"},
    {gdur::obs::Phase::kRead, "store.read"},
    {gdur::obs::Phase::kXcast, "comm.xcast"},
    {gdur::obs::Phase::kCertWait, "core.cert_wait"},
    {gdur::obs::Phase::kCertify, "core.certify"},
    {gdur::obs::Phase::kVoteCollect, "core.vote_collect"},
    {gdur::obs::Phase::kApply, "store.apply"},
    {gdur::obs::Phase::kClientResponse, "live.response"},
};

/// The phases that tile a committed update transaction's life end to end
/// (kRead and kApply overlap them and are excluded from the sum).
const gdur::obs::Phase kTiles[] = {
    gdur::obs::Phase::kExecute,  gdur::obs::Phase::kXcast,
    gdur::obs::Phase::kCertWait, gdur::obs::Phase::kCertify,
    gdur::obs::Phase::kVoteCollect, gdur::obs::Phase::kClientResponse,
};

std::vector<std::pair<std::string, std::string>> layer_catalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"txn_p99_ms", "ms"},
      {"workload.offered_ratio", "ratio"},
      {"workload.lag_p99_ms", "ms"},
      {"workload.failed_pct", "%"},
      {"abort_pct", "%"},
      {"sim_commits_per_wall_s", "1/s"},
      {"front.client_rtt_mean_ms", "ms"},
      {"front.server_resp_mean_ms", "ms"},
      {"front.door_mean_ms", "ms"},
      {"front.frames_per_txn", "count"},
      {"front.wakeups_per_txn", "count"},
      {"live.mailbox_wait_p50_us", "us"},
      {"live.mailbox_wait_p99_us", "us"},
      {"live.mailbox_tasks_per_txn", "count"},
      {"live.loop_wakeups_per_txn", "count"},
      {"live.timer_fires_per_txn", "count"},
      {"net.frames_per_commit", "count"},
      {"net.bytes_per_commit", "B"},
      {"net.votes_per_commit", "count"},
      {"core.phase_sum_gap_pct", "%"},
      {"core.remote_term_mean_ms", "ms"},
      {"core.remote_term_p99_ms", "ms"},
      {"core.remote_term_share_pct", "%"},
      {"core.abort_conflict_pct", "%"},
      {"core.abort_snapshot_pct", "%"},
      {"core.queue_depth_p99", "count"},
      {"sim.events_per_commit", "count"},
      {"net.msgs_per_commit", "count"},
      {"comm.ordering_msgs_per_commit", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  for (const auto& p : kPhaseLayers) {
    c.emplace_back(std::string(p.name) + "_mean_ms", "ms");
    c.emplace_back(std::string(p.name) + "_p99_ms", "ms");
  }
  for (const char* proto :
       {"RC", "Jessy2pc", "Walter", "GMU", "S-DUR", "Serrano", "P-Store"})
    c.emplace_back(std::string("sim.wall_s.") + proto, "s");
  return c;
}

}  // namespace

Result::Result() {
  for (const auto& [name, unit] : kEndToEnd) e2e[name] = Metric{0.0, unit};
  for (const auto& [name, unit] : layer_catalog())
    layers[name] = Metric{0.0, unit};
}

void Result::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void Result::set_e2e(const std::string& name, double v) {
  e2e.at(name).value = v;
}

void Result::set_layer(const std::string& name, double v) {
  layers.at(name).value = v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void LatencySamples::merge_from(const LatencySamples& o) {
  ns.insert(ns.end(), o.ns.begin(), o.ns.end());
  failed += o.failed;
}

double LatencySamples::percentile_ms(double q, double cap_ms) const {
  const std::size_t total = ns.size() + failed;
  if (total == 0) return 0.0;
  // Nearest-rank percentile; failed requests sort after every sample.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(total)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (idx >= ns.size()) return cap_ms;
  std::vector<std::int64_t> v = ns;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]) / 1e6;
}

double log2_bucket_p99(const std::vector<std::uint64_t>& buckets) {
  std::uint64_t total = 0;
  for (auto b : buckets) total += b;
  if (total == 0) return 0.0;
  const auto want =
      static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= want) return std::ldexp(1.0, static_cast<int>(i) + 1) - 1.0;
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size())) - 1.0;
}

void PhaseBudget::add(const gdur::obs::TxnPhaseReport& r) {
  using gdur::obs::Phase;
  if (!r.committed || r.read_only) return;
  phases.add_phase_report(r);
  gdur::SimDuration tiled = 0;
  for (auto t : kTiles) tiled += r.of(t);
  const gdur::SimDuration e2e = r.end - r.begin;
  // The coordinator records the termination anchors only when it is itself
  // a destination of the termination xcast. When it is not (it replicates
  // nothing the transaction wrote), submit → decision passes at remote
  // participants: that wait is its own tile, not unexplained time.
  const bool coord_terminated = r.of(Phase::kXcast) > 0 ||
                                r.of(Phase::kCertWait) > 0 ||
                                r.of(Phase::kCertify) > 0 ||
                                r.of(Phase::kVoteCollect) > 0;
  if (!coord_terminated && e2e > tiled) {
    remote_term.add(e2e - tiled);
    tiled = e2e;
  }
  tiled_ns += static_cast<double>(tiled);
  e2e_ns += static_cast<double>(e2e);
  ++txns;
}

void set_phase_layers(Result& r, const PhaseBudget& b) {
  for (const auto& p : kPhaseLayers) {
    const auto& st = b.phases.phase_stat(p.phase);
    r.set_layer(std::string(p.name) + "_mean_ms", st.mean_ms());
    r.set_layer(std::string(p.name) + "_p99_ms", st.percentile_ms(0.99));
  }
  r.set_layer("core.remote_term_mean_ms", b.remote_term.mean_ms());
  r.set_layer("core.remote_term_p99_ms", b.remote_term.percentile_ms(0.99));
  r.set_layer("core.remote_term_share_pct",
              b.txns == 0 ? 0.0
                          : 100.0 * static_cast<double>(b.remote_term.count()) /
                                static_cast<double>(b.txns));
  if (b.e2e_ns > 0)
    r.set_layer("core.phase_sum_gap_pct",
                100.0 * std::fabs(b.tiled_ns - b.e2e_ns) / b.e2e_ns);
}

}  // namespace perfbench

#include "harness/experiment.h"

#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "workload/client.h"

namespace gdur::harness {

RunResult run_experiment(const core::ProtocolSpec& spec,
                         const ExperimentConfig& cfg) {
  core::ClusterConfig ccfg = cfg.cluster;
  ccfg.seed = cfg.seed;
  core::Cluster cluster(ccfg, spec);
  Metrics metrics;

  obs::TraceRecorder* tr = cluster.trace();
  if (tr != nullptr) {
    // Fold finished update commits into the per-phase latency stats. The
    // sink fires for every report; aborted and read-only transactions are
    // skipped so the breakdown matches upd_term_latency's population.
    tr->set_phase_sink([&metrics](const obs::TxnPhaseReport& rep) {
      if (rep.committed && !rep.read_only) metrics.add_phase_report(rep);
    });
  }

  std::vector<std::unique_ptr<workload::ClientActor>> clients;
  clients.reserve(static_cast<std::size_t>(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    const auto site = static_cast<SiteId>(i % cluster.sites());
    clients.push_back(std::make_unique<workload::ClientActor>(
        cluster, site, cfg.workload, metrics,
        mix64(cfg.seed * 1'000'003 + static_cast<std::uint64_t>(i))));
    // Stagger start times so clients do not fire in lockstep.
    clients.back()->start(
        static_cast<SimTime>(i) * microseconds(97) % milliseconds(25));
  }

  auto& sim = cluster.simulator();
  sim.run_until(cfg.warmup);
  metrics.reset();
  cluster.transport().reset_accounting();
  const std::uint64_t retransmits_before =
      cluster.plane().total(obs::Counter::kRetransmits);
  if (tr != nullptr) tr->reset_counters();
  const std::uint64_t events_before = sim.events_processed();

  sim.run_until(cfg.warmup + cfg.window);

  const double window_s = to_seconds(cfg.window);
  RunResult r;
  r.protocol = spec.name;
  r.clients = cfg.clients;
  r.throughput_tps = static_cast<double>(metrics.committed()) / window_s;
  r.upd_term_latency_ms = metrics.upd_term_latency.mean_ms();
  r.txn_latency_ms = metrics.txn_latency.mean_ms();
  r.txn_latency_p50 = metrics.txn_latency.percentile_ms(0.50);
  r.txn_latency_p95 = metrics.txn_latency.percentile_ms(0.95);
  r.txn_latency_p99 = metrics.txn_latency.percentile_ms(0.99);
  r.abort_ratio_pct = metrics.abort_ratio_pct();
  r.upd_abort_ratio_pct = metrics.upd_abort_ratio_pct();
  r.committed = metrics.committed();
  r.aborted = metrics.aborted();
  r.exec_failures = metrics.exec_failures;
  double util = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(cluster.sites()); ++s)
    util += cluster.transport().cpu(s).utilization(cfg.warmup,
                                                   cfg.warmup + cfg.window);
  r.cpu_utilization = util / cluster.sites();
  r.messages = cluster.transport().messages_sent();
  r.events_per_second =
      static_cast<double>(sim.events_processed() - events_before) / window_s;
  r.msgs_retransmitted =
      cluster.plane().total(obs::Counter::kRetransmits) - retransmits_before;
  r.txns_timed_out = metrics.txns_timed_out;
  for (SiteId s = 0; s < static_cast<SiteId>(cluster.sites()); ++s) {
    r.timeout_aborts += cluster.replica(s).timeout_aborts();
    r.recoveries += cluster.replica(s).recoveries();
  }
  r.aborts_by_reason = metrics.aborts_by_reason;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const LatencyStat& st = metrics.phase[p];
    r.phase_count[p] = st.count();
    r.phase_mean_ms[p] = st.mean_ms();
    r.phase_p99_ms[p] = st.percentile_ms(0.99);
  }
  return r;
}

std::vector<RunResult> run_sweep(const core::ProtocolSpec& spec,
                                 ExperimentConfig cfg,
                                 const std::vector<int>& client_counts) {
  std::vector<RunResult> out;
  out.reserve(client_counts.size());
  for (int n : client_counts) {
    cfg.clients = n;
    out.push_back(run_experiment(spec, cfg));
  }
  return out;
}

void print_header(const std::string& title) {
  std::printf("\n# %s\n", title.c_str());
  std::printf("# %-12s %8s %12s %12s %12s %9s %9s %9s %10s %10s %8s\n",
              "protocol", "clients", "tput(tps)", "termlat(ms)", "txnlat(ms)",
              "p50(ms)", "p95(ms)", "p99(ms)", "abort(%)", "updabort%", "cpu");
}

void print_result(const RunResult& r) {
  std::printf(
      "  %-12s %8d %12.0f %12.2f %12.2f %9.2f %9.2f %9.2f %10.2f %10.2f "
      "%8.2f\n",
      r.protocol.c_str(), r.clients, r.throughput_tps, r.upd_term_latency_ms,
      r.txn_latency_ms, r.txn_latency_p50, r.txn_latency_p95,
      r.txn_latency_p99, r.abort_ratio_pct, r.upd_abort_ratio_pct,
      r.cpu_utilization);
}

void print_phase_breakdown(const RunResult& r) {
  if (!r.has_phase_breakdown()) return;
  std::printf("  %-12s %-16s %10s %12s %12s\n", r.protocol.c_str(), "phase",
              "count", "mean(ms)", "p99(ms)");
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    if (r.phase_count[p] == 0) continue;
    std::printf("  %-12s %-16s %10llu %12.3f %12.3f\n", r.protocol.c_str(),
                obs::phase_name(static_cast<obs::Phase>(p)),
                static_cast<unsigned long long>(r.phase_count[p]),
                r.phase_mean_ms[p], r.phase_p99_ms[p]);
  }
}

}  // namespace gdur::harness

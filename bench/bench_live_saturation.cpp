// Live saturation benchmark: client-visible latency versus load on the real
// socket runtime (src/live/), the canonical "knee" study. Per protocol:
//   * one closed-loop row — 32 clients (16 with --short), each keeping one
//     interactive transaction in flight: the committed txns per wall second
//     the engine sustains on this host;
//   * for the laddered protocols, an open-loop ladder of offered Poisson
//     rates, first with per-destination vote/ack coalescing off, then on,
//     reaching past the in-process knee. Latency is timed from each
//     arrival's intended time, so a backlog shows as latency; the batching
//     columns show how much wire traffic the coalescer absorbed.
//
// A point fails the bench (exit nonzero, "FAIL" on stdout) when its history
// violates the protocol's criterion, when it commits nothing, or when an
// open loop offered less than 95% of its schedule (the generator, not the
// engine, would be the bottleneck). Transactions still in flight after the
// drain past the knee are reported as `hung`, not failed.
//
// Output: each point as a JSON line on stdout, and the report
// (BENCH_live_saturation.json by default): {"git_sha", "cores", "points"}.
// Wall-clock numbers vary with the host; compare against a baseline on the
// same machine (see EXPERIMENTS.md).
//
// Flags:
//   --short       1 s windows, 2 load points, 2 protocols (CI smoke mode)
//   --out FILE    JSON report path (default BENCH_live_saturation.json)
//   --sites N     sites / mailbox threads (default 3)
//   --secs S      measurement window per point (default 2.0)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "live/live_runner.h"

using namespace gdur;

namespace {

/// Share of the open loop's schedule actually issued (1 for a closed loop).
double offered_ratio(const live::LiveRunResult& r) {
  return r.scheduled == 0 ? 1.0
                          : static_cast<double>(r.offered) /
                                static_cast<double>(r.scheduled);
}

bool point_ok(const live::LiveRunResult& r) {
  return r.checker_ok && r.metrics.committed() > 0 && offered_ratio(r) >= 0.95;
}

std::string to_json(const live::LiveRunConfig& cfg,
                    const live::LiveRunResult& r) {
  const bool closed = cfg.open_loop_tps == 0;
  char buf[896];
  std::snprintf(
      buf, sizeof(buf),
      "{\"protocol\": \"%s\", \"criterion\": \"%s\", \"mode\": \"%s\", "
      "\"clients\": %d, \"coalesce\": %s, \"offered_tps\": %.0f, "
      "\"offered_ratio\": %.4f, \"lag_p99_ms\": %.3f, \"committed\": %llu, "
      "\"aborted\": %llu, \"hung\": %d, \"wall_s\": %.3f, "
      "\"committed_per_wall_s\": %.1f, "
      "\"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f}, "
      "\"frames\": %llu, \"bytes\": %llu, \"batches\": %llu, "
      "\"batched_msgs\": %llu, \"checker_ok\": %s}",
      r.protocol.c_str(), r.criterion.c_str(), closed ? "closed" : "open",
      closed ? cfg.clients : 0, cfg.coalesce ? "true" : "false",
      cfg.open_loop_tps, offered_ratio(r), r.lag.percentile_ms(0.99),
      static_cast<unsigned long long>(r.metrics.committed()),
      static_cast<unsigned long long>(r.metrics.aborted()), r.hung_clients,
      r.wall_secs, r.throughput_tps, r.metrics.txn_latency.percentile_ms(0.5),
      r.metrics.txn_latency.percentile_ms(0.99), r.metrics.txn_latency.max_ms(),
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.bytes),
      static_cast<unsigned long long>(r.batches),
      static_cast<unsigned long long>(r.batched_msgs),
      r.checker_ok ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  const char* out_path = "BENCH_live_saturation.json";
  live::LiveRunConfig cfg;
  cfg.sites = 3;
  cfg.secs = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc)
      cfg.sites = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--secs") == 0 && i + 1 < argc)
      cfg.secs = std::atof(argv[++i]);
  }
  cfg.workload = workload::WorkloadSpec::A(0.8);

  std::vector<std::string> names{"P-Store", "S-DUR",    "GMU", "Serrano",
                                 "Walter",  "Jessy2pc", "RC"};
  std::vector<std::string> laddered{"P-Store", "GMU", "Walter"};
  // P-Store's in-process knee sits between 30k and 40k offered/s on a
  // 4-core host; the top rungs show what lies past it.
  std::vector<double> loads{500, 2000, 8000, 20000, 30000, 40000, 60000};
  cfg.clients = 32;
  if (short_mode) {
    cfg.secs = 1.0;
    names = laddered = {"P-Store", "GMU"};
    loads = {500, 4000};
    cfg.clients = 16;
  }

  std::printf(
      "# Live saturation: client-visible latency vs load (%d sites, %.1f s "
      "per point; latency from the intended arrival)\n",
      cfg.sites, cfg.secs);
  std::vector<std::string> json;
  bool all_ok = true;
  // offered_tps == 0 runs the closed-loop row.
  const auto run = [&](double offered_tps, bool coalesce) {
    cfg.open_loop_tps = offered_tps;
    cfg.coalesce = coalesce;
    const auto r = live::run_live(cfg);
    all_ok = all_ok && point_ok(r);
    json.push_back(to_json(cfg, r));
    std::printf("%s%s\n", point_ok(r) ? "" : "FAIL ", json.back().c_str());
    if (!r.checker_ok) std::printf("  %s\n", r.checker_detail.c_str());
  };
  for (const auto& name : names) {
    cfg.protocol = name;
    run(0, false);
    if (std::find(laddered.begin(), laddered.end(), name) == laddered.end())
      continue;
    for (const bool coalesce : {false, true})
      for (const double tps : loads) run(tps, coalesce);
  }
  bench::write_report(out_path, json);
  return all_ok ? 0 : 1;
}

// Self-performance harness: simulated committed transactions per second of
// WALL-CLOCK time, per protocol. Every other bench reports simulated-time
// metrics (throughput inside the model); this one measures the simulator
// itself, establishing the repo's performance trajectory against the
// ROADMAP's "as fast as the hardware allows" north star.
//
// Two scenarios per protocol:
//   * deep-queue  — few hot objects, many clients, mostly updates: the
//     termination queue grows long and certification's commute scans
//     dominate engine CPU. This is the scenario the ConflictIndex targets.
//   * default     — the standard Workload A point, guarding against
//     regressions on the uncontended path.
//
// Output: a human-readable table on stdout and a JSON report
// (BENCH_selfperf.json by default; {"git_sha", "cores", "points": [...]})
// with one point per (protocol, scenario): simulated committed txns, wall
// seconds, committed/wall-s, and simulated events/wall-s. Wall-clock
// numbers vary with the host; compare ratios against a baseline build on
// the same machine, not absolute values across machines (see
// EXPERIMENTS.md).
//
// A third mode (--shards) measures the sharded certification pipeline
// (DESIGN.md §14) instead of the simulator: committed transactions per
// second at shards_per_site ∈ {1, 2, 4} on a certification-bound
// configuration, in the simulator (per simulated second, lane model) and in
// the live runtime (per wall second, certify-service model — honest on a
// single-core host, see EXPERIMENTS.md). Report: BENCH_selfperf_shards.json
// with per-point speedup over the 1-shard serial baseline.
//
// Flags:
//   --short       smaller windows / fewer clients (CI smoke mode)
//   --out FILE    JSON report path (default BENCH_selfperf.json, or
//                 BENCH_selfperf_shards.json with --shards)
//   --deep-only   skip the default-workload scenario
//   --shards      run the cores-scaling shard suite instead of the
//                 simulator-throughput suite
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "live/live_runner.h"

using namespace gdur;

namespace {

struct SelfPerfResult {
  std::string protocol;
  std::string scenario;
  std::uint64_t committed = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  double committed_per_wall_s = 0;
  double events_per_wall_s = 0;
};

SelfPerfResult measure(const std::string& protocol, const std::string& scenario,
                       const harness::ExperimentConfig& cfg) {
  const auto spec = protocols::by_name(protocol);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = harness::run_experiment(spec, cfg);
  const auto t1 = std::chrono::steady_clock::now();

  SelfPerfResult out;
  out.protocol = protocol;
  out.scenario = scenario;
  out.committed = r.committed;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  // events_per_second is simulated events per simulated second over the
  // measurement window; recover the event count from the window length.
  out.events = static_cast<std::uint64_t>(
      r.events_per_second * (static_cast<double>(cfg.window) / seconds(1)));
  if (out.wall_s > 0) {
    out.committed_per_wall_s = static_cast<double>(out.committed) / out.wall_s;
    out.events_per_wall_s = static_cast<double>(out.events) / out.wall_s;
  }
  return out;
}

std::string to_json(const SelfPerfResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"protocol\": \"%s\", \"scenario\": \"%s\", "
                "\"committed\": %llu, \"wall_s\": %.3f, "
                "\"committed_per_wall_s\": %.1f, "
                "\"sim_events\": %llu, \"events_per_wall_s\": %.0f}",
                r.protocol.c_str(), r.scenario.c_str(),
                static_cast<unsigned long long>(r.committed), r.wall_s,
                r.committed_per_wall_s,
                static_cast<unsigned long long>(r.events),
                r.events_per_wall_s);
  return buf;
}

// ---------------------------------------------------------------------------
// --shards: cores-scaling of the sharded certification pipeline.
// ---------------------------------------------------------------------------

struct ShardPoint {
  std::string mode;  // "sim" | "live"
  int shards = 1;
  std::uint64_t committed = 0;
  double secs = 0;       // sim: simulated window; live: wall window
  double per_s = 0;      // committed / secs
  double speedup = 1.0;  // vs the 1-shard point of the same mode
};

int run_shards_suite(bool short_mode, const char* out_path) {
  const std::string protocol = "P-Store";
  std::vector<ShardPoint> points;

  harness::print_header(
      "Shard scaling: committed txn/s vs shards_per_site (P-DUR pipeline)");
  std::printf("%-5s %7s %10s %8s %12s %8s\n", "mode", "shards", "committed",
              "secs", "commit/s", "speedup");

  // Simulator, lane model. Certification-bound on purpose: one modeled
  // core per site and a heavy certify_base make the certifier the
  // bottleneck resource, so lanes — not the network — set the slope.
  //
  // The workload is P-DUR's sweet spot: single-object footprints, so every
  // certification is single-shard and disjoint transactions overlap fully.
  // Multi-object footprints (e.g. Workload B's 2r+2w updates) span several
  // of the 4 slices and the lanes serialize exactly on the overlap — that
  // regime measures the ordering rule, not the pipeline, and its slope is
  // bounded well below the shard count (see EXPERIMENTS.md).
  workload::WorkloadSpec onesie;
  onesie.name = "1op";
  onesie.ro_reads = 1;
  onesie.upd_reads = 0;
  onesie.upd_writes = 1;
  onesie.read_only_ratio = 0.5;

  harness::ExperimentConfig cfg;
  cfg.cluster.sites = 2;
  cfg.cluster.replication = 1;
  cfg.cluster.objects_per_site = 4096;
  cfg.cluster.cores_per_site = 1;
  cfg.cluster.cost.certify_base = microseconds(600);
  // A fast interconnect (vs the default WAN-ish 10-20ms) and a deep closed
  // loop keep the certifier saturated; otherwise client think-time, not
  // certification, sets the throughput and shards have nothing to scale.
  cfg.cluster.min_latency = microseconds(200);
  cfg.cluster.max_latency = microseconds(400);
  cfg.workload = onesie;
  cfg.clients = short_mode ? 128 : 256;
  cfg.warmup = seconds(0.5);
  cfg.window = short_mode ? seconds(1) : seconds(2);
  cfg.seed = 42;
  const double sim_secs = static_cast<double>(cfg.window) / seconds(1);
  double sim_base = 0;
  for (int s : {1, 2, 4}) {
    cfg.cluster.shards_per_site = s;
    const auto r = harness::run_experiment(protocols::by_name(protocol), cfg);
    ShardPoint p{"sim", s, r.committed, sim_secs,
                 static_cast<double>(r.committed) / sim_secs, 1.0};
    if (s == 1) sim_base = p.per_s;
    if (sim_base > 0) p.speedup = p.per_s / sim_base;
    std::printf("%-5s %7d %10llu %8.2f %12.1f %7.2fx\n", "sim", s,
                static_cast<unsigned long long>(p.committed), p.secs, p.per_s,
                p.speedup);
    points.push_back(p);
  }

  // Live runtime, certify-service model: shard workers wait out the same
  // analytic certification time, so waits overlap even on one hardware
  // core and the measurement captures pipeline parallelism, not host core
  // count. The 1-shard baseline takes the identical wait on its (single)
  // site thread — same modeled work, serial schedule.
  double live_base = 0;
  for (int s : {1, 2, 4}) {
    live::LiveRunConfig lcfg;
    lcfg.protocol = protocol;
    lcfg.sites = 3;
    lcfg.clients = short_mode ? 48 : 64;
    lcfg.secs = short_mode ? 1.0 : 2.0;
    lcfg.workload = onesie;
    lcfg.objects_per_site = 4096;
    lcfg.replication = 1;
    lcfg.seed = 42;
    lcfg.shards_per_site = s;
    lcfg.live_certify_model = true;
    lcfg.cost.certify_base = milliseconds(2);
    const auto r = live::run_live(lcfg);
    ShardPoint p{"live", s, r.metrics.committed(), r.wall_secs,
                 r.throughput_tps, 1.0};
    if (s == 1) live_base = p.per_s;
    if (live_base > 0) p.speedup = p.per_s / live_base;
    std::printf("%-5s %7d %10llu %8.2f %12.1f %7.2fx%s\n", "live", s,
                static_cast<unsigned long long>(p.committed), p.secs, p.per_s,
                p.speedup, r.checker_ok ? "" : "  CHECKER-FAIL");
    points.push_back(p);
  }

  std::vector<std::string> json;
  for (const auto& p : points) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"mode\": \"%s\", \"protocol\": \"%s\", \"shards\": %d, "
                  "\"committed\": %llu, \"secs\": %.3f, "
                  "\"committed_per_s\": %.1f, \"speedup_vs_1\": %.3f}",
                  p.mode.c_str(), protocol.c_str(), p.shards,
                  static_cast<unsigned long long>(p.committed), p.secs,
                  p.per_s, p.speedup);
    json.emplace_back(buf);
  }
  bench::write_report(out_path, json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  bool deep_only = false;
  bool shards_mode = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--deep-only") == 0) deep_only = true;
    if (std::strcmp(argv[i], "--shards") == 0) shards_mode = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  if (shards_mode)
    return run_shards_suite(short_mode,
                            out_path ? out_path : "BENCH_selfperf_shards.json");
  if (out_path == nullptr) out_path = "BENCH_selfperf.json";

  // Deep-queue high-contention scenario: a small hot set and an
  // update-heavy interactive workload keep |Q| large at every replica, so
  // commute-scan cost is the dominant engine term.
  auto deep = bench::base_config(4, /*replication=*/1,
                                 workload::WorkloadSpec::B(0.1));
  deep.cluster.objects_per_site = 512;
  deep.clients = short_mode ? 256 : 1024;
  deep.warmup = seconds(0.3);
  deep.window = short_mode ? seconds(0.6) : seconds(1.5);

  // Default point: Workload A as run by the figure benches.
  auto dflt = bench::base_config(4, /*replication=*/1,
                                 workload::WorkloadSpec::A(0.9));
  dflt.clients = short_mode ? 128 : 256;
  dflt.warmup = seconds(0.3);
  dflt.window = short_mode ? seconds(0.5) : seconds(1.0);

  const std::vector<std::string> names{"P-Store", "S-DUR",    "GMU", "Serrano",
                                       "Walter",  "Jessy2pc", "RC"};

  std::vector<SelfPerfResult> results;
  harness::print_header(
      "Self-perf: simulated committed txns per wall-clock second");
  std::printf("%-10s %-10s %10s %8s %14s %14s\n", "protocol", "scenario",
              "committed", "wall_s", "commit/wall_s", "events/wall_s");
  for (const auto& name : names) {
    std::vector<std::pair<std::string, const harness::ExperimentConfig*>> runs;
    runs.emplace_back("deep-queue", &deep);
    if (!deep_only) runs.emplace_back("default", &dflt);
    for (const auto& [scenario, cfg] : runs) {
      const auto r = measure(name, scenario, *cfg);
      std::printf("%-10s %-10s %10llu %8.3f %14.1f %14.0f\n",
                  r.protocol.c_str(), r.scenario.c_str(),
                  static_cast<unsigned long long>(r.committed), r.wall_s,
                  r.committed_per_wall_s, r.events_per_wall_s);
      results.push_back(r);
    }
  }

  std::vector<std::string> json;
  for (const auto& r : results) json.push_back(to_json(r));
  bench::write_report(out_path, json);
  return 0;
}

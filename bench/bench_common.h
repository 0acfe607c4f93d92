// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "protocols/protocols.h"
#include "workload/workload.h"

namespace gdur::bench {

inline harness::ExperimentConfig base_config(int sites, int replication,
                                             workload::WorkloadSpec wl) {
  harness::ExperimentConfig cfg;
  cfg.cluster.sites = sites;
  cfg.cluster.replication = replication;
  cfg.cluster.objects_per_site = 100'000;  // §8.1: 1e5 objects per replica
  cfg.workload = std::move(wl);
  cfg.warmup = seconds(0.7);
  cfg.window = seconds(2.5);
  cfg.seed = 42;
  return cfg;
}

inline const std::vector<int>& default_load_points() {
  static const std::vector<int> points{64, 128, 256, 512, 1024, 2048};
  return points;
}

/// Runs the sweep for each named protocol and prints one series per
/// protocol in gnuplot-friendly form.
inline std::vector<harness::RunResult> run_and_print(
    const std::string& title, const std::vector<std::string>& protocol_names,
    const harness::ExperimentConfig& cfg,
    const std::vector<int>& load = default_load_points()) {
  harness::print_header(title);
  std::vector<harness::RunResult> all;
  for (const auto& name : protocol_names) {
    const auto spec = protocols::by_name(name);
    for (const auto& r : harness::run_sweep(spec, cfg, load)) {
      harness::print_result(r);
      all.push_back(r);
    }
    std::printf("\n");
  }
  return all;
}

/// HEAD of the source checkout this bench was built from, read at run time
/// ("unknown" outside a git checkout).
inline std::string git_sha() {
  std::string sha;
  if (FILE* p = popen("git -C '" GDUR_SOURCE_DIR "' rev-parse HEAD 2>/dev/null",
                      "r")) {
    for (int c; (c = std::fgetc(p)) != EOF && std::isxdigit(c);)
      sha += static_cast<char>(c);
    pclose(p);
  }
  return sha.empty() ? "unknown" : sha;
}

/// Writes `points` (one JSON object each) to `path` in the envelope every
/// root BENCH_*.json shares: {"git_sha", "cores", "points": [...]}.
inline void write_report(const char* path,
                         const std::vector<std::string>& points) {
  std::ofstream out(path, std::ios::binary);
  out << "{\"git_sha\": \"" << git_sha()
      << "\", \"cores\": " << std::thread::hardware_concurrency()
      << ",\n \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    out << "  " << points[i] << (i + 1 == points.size() ? "\n" : ",\n");
  out << "]}\n";
  std::printf("\n# wrote %zu records to %s\n", points.size(), path);
}

/// Largest throughput seen across a sweep (the "max throughput" metric of
/// Figure 5).
inline double max_throughput(const core::ProtocolSpec& spec,
                             harness::ExperimentConfig cfg,
                             const std::vector<int>& load) {
  double best = 0;
  for (const auto& r : harness::run_sweep(spec, cfg, load))
    best = std::max(best, r.throughput_tps);
  return best;
}

}  // namespace gdur::bench

// gdur_perfbench — the repository benchmark's measuring program.
//
//   gdur_perfbench --workload front-open|engine-closed|sim-fig3
//                  --seed N --seconds S --trace 0|1 [--smoke] [--state DIR]
//   gdur_perfbench --self-test
//
// Prints progress lines, then one JSON report line holding the run's
// config, verdict, end-to-end metrics (trace 0) or per-layer metrics
// (trace 1), and reference outputs. engine-closed has per-layer metrics
// only and runs with --trace 1 alone. perfbench/run.py builds this program
// and turns the report into the benchmark's result line. Exit status is
// nonzero when any correctness gate failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

void json_metrics(std::string& out, const std::map<std::string, Metric>& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    json_string(out, name);
    out += ": {\"value\": ";
    json_number(out, metric.value);
    out += ", \"unit\": ";
    json_string(out, metric.unit);
    out += '}';
  }
  out += '}';
}

std::string report_json(const perfbench::Options& opt,
                        const perfbench::Result& r) {
  std::string out = "{\"workload\": ";
  json_string(out, opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"trace\": ";
  out += opt.trace ? "1" : "0";
  out += ", \"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"config\": {";
  bool first = true;
  for (const auto& [k, v] : r.config) {
    if (!first) out += ", ";
    first = false;
    json_string(out, k);
    out += ": ";
    json_string(out, v);
  }
  out += "}, \"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) out += ", ";
    json_string(out, r.problems[i]);
  }
  out += "], \"metrics\": ";
  json_metrics(out, opt.trace ? r.layers : r.e2e);
  out += ", \"reference\": {";
  first = true;
  for (const auto& [k, v] : r.reference) {
    if (!first) out += ", ";
    first = false;
    json_string(out, k);
    out += ": ";
    json_number(out, v);
  }
  out += "}}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: gdur_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--state DIR]\n"
               "       gdur_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_val = i + 1 < argc;
    if (std::strcmp(a, "--self-test") == 0) {
      return perfbench::run_self_test() == 0 ? 0 : 1;
    } else if (std::strcmp(a, "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(a, "--workload") == 0 && has_val) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_val) {
      opt.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--trace") == 0 && has_val) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--state") == 0 && has_val) {
      opt.state_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();
  if (opt.workload == "engine-closed" && !opt.trace) {
    std::fprintf(stderr,
                 "gdur_perfbench: engine-closed runs traced only (--trace 1)\n");
    return 2;
  }

  perfbench::Result r;
  if (opt.workload == "front-open") {
    r = perfbench::run_front_open(opt);
  } else if (opt.workload == "engine-closed") {
    r = perfbench::run_engine_closed(opt);
  } else if (opt.workload == "sim-fig3") {
    r = perfbench::run_sim_fig3(opt);
  } else {
    return usage();
  }
  for (const auto& p : r.problems)
    std::fprintf(stderr, "gdur_perfbench: FAILED: %s\n", p.c_str());
  std::printf("%s\n", report_json(opt, r).c_str());
  return r.correct ? 0 : 1;
}

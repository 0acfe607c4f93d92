// gdur_live: run G-DUR protocols over real loopback TCP sockets and threads.
//
// Each site is a mailbox thread behind a full mesh of TCP connections;
// every protocol message travels as real bytes through net::codec. The
// recorded history is verified against the protocol's claimed criterion.
//
//   $ ./examples/gdur_live --protocol Walter --sites 3 --clients 16 --secs 3
//   $ ./examples/gdur_live --protocol all --secs 1
//
// Flags:
//   --protocol NAME   registry name (P-Store, S-DUR, GMU, Serrano, Walter,
//                     Jessy2pc, RC, ...) or "all" for the paper's seven
//   --sites N         number of sites (default 3)
//   --clients N       closed-loop client flows (default 16)
//   --secs S          measured wall-clock duration (default 2)
//   --workload A|B|C  YCSB-style mix (default A)
//   --ro R            read-only transaction ratio (default 0.8)
//   --rate TPS        open-loop Poisson arrivals instead of closed loops
//   --delay-scale D   emulated link delay = topology latency x D (default 0)
//   --coalesce        batch small protocol messages per destination
//                     (kBatch frames, flushed at mailbox-idle / size cap)
//   --seed N          workload seed (default 42)
//   --no-check        skip history checking
//   --snapshot PFX    write observability-plane snapshots (PFX.json /
//                     PFX.prom) every second and flight dumps to
//                     PFX.flight.txt
//
// Every run carries the observability plane (telemetry, flight recorder,
// stall watchdog, invariant monitor). Exit status: nonzero if any run
// violates its criterion, commits nothing, leaves a client hung, trips the
// watchdog or breaks an invariant.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "front/signals.h"
#include "live/live_runner.h"

using namespace gdur;

namespace {

const char* kAllProtocols[] = {"P-Store", "S-DUR",  "GMU", "Serrano",
                               "Walter",  "Jessy2pc", "RC"};

double arg_double(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  return std::atof(argv[++i]);
}

}  // namespace

int main(int argc, char** argv) {
  // SIGTERM/SIGINT end the measurement window early and drain cleanly
  // (mailboxes flushed, history checked, final obs snapshot) instead of
  // killing the process mid-transaction. Exit stays 0 unless something
  // actually failed.
  front::install_shutdown_handler();
  live::LiveRunConfig cfg;
  std::string protocol = "P-Store";
  double ro = 0.8;
  std::string workload = "A";
  std::string snapshot_prefix;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--protocol") == 0 && i + 1 < argc) {
      protocol = argv[++i];
    } else if (std::strcmp(a, "--sites") == 0) {
      cfg.sites = static_cast<int>(arg_double(argc, argv, i, a));
    } else if (std::strcmp(a, "--clients") == 0) {
      cfg.clients = static_cast<int>(arg_double(argc, argv, i, a));
    } else if (std::strcmp(a, "--secs") == 0) {
      cfg.secs = arg_double(argc, argv, i, a);
    } else if (std::strcmp(a, "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (std::strcmp(a, "--ro") == 0) {
      ro = arg_double(argc, argv, i, a);
    } else if (std::strcmp(a, "--rate") == 0) {
      cfg.open_loop_tps = arg_double(argc, argv, i, a);
    } else if (std::strcmp(a, "--delay-scale") == 0) {
      cfg.delay_scale = arg_double(argc, argv, i, a);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = static_cast<std::uint64_t>(arg_double(argc, argv, i, a));
    } else if (std::strcmp(a, "--coalesce") == 0) {
      cfg.coalesce = true;
    } else if (std::strcmp(a, "--no-check") == 0) {
      cfg.check = false;
    } else if (std::strcmp(a, "--snapshot") == 0 && i + 1 < argc) {
      snapshot_prefix = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s (see header comment)\n", a);
      return 2;
    }
  }
  cfg.workload = workload == "B"   ? workload::WorkloadSpec::B(ro)
                 : workload == "C" ? workload::WorkloadSpec::C(ro)
                                   : workload::WorkloadSpec::A(ro);

  std::vector<std::string> protocols;
  if (protocol == "all") {
    protocols.assign(std::begin(kAllProtocols), std::end(kAllProtocols));
  } else {
    protocols.push_back(protocol);
  }

  std::printf("%-10s %-5s %10s %10s %9s %10s  %s\n", "protocol", "crit",
              "committed", "aborted", "tps", "msgs", "check");
  bool all_ok = true;
  for (const auto& p : protocols) {
    cfg.protocol = p;
    // Each run's cluster owns its plane, so verdicts are per-protocol.
    cfg.snapshot_prefix = protocols.size() > 1 && !snapshot_prefix.empty()
                              ? snapshot_prefix + "." + p
                              : snapshot_prefix;
    const auto r = live::run_live(cfg);
    const bool ok = r.checker_ok && r.metrics.committed() > 0 &&
                    r.hung_clients == 0 && r.watchdog_trips == 0 &&
                    r.invariant_violations == 0;
    all_ok = all_ok && ok;
    std::printf("%-10s %-5s %10llu %10llu %9.0f %10llu  %s\n",
                r.protocol.c_str(), r.criterion.c_str(),
                static_cast<unsigned long long>(r.metrics.committed()),
                static_cast<unsigned long long>(r.metrics.aborted()),
                r.throughput_tps,
                static_cast<unsigned long long>(r.messages),
                !cfg.check        ? "skipped"
                : r.checker_ok    ? "clean"
                                  : r.checker_detail.c_str());
    if (cfg.open_loop_tps > 0)
      std::printf("  offered %.0f/s of %.0f/s nominal\n",
                  static_cast<double>(r.offered) / r.wall_secs,
                  cfg.open_loop_tps);
    if (r.hung_clients > 0)
      std::printf("  WARNING: %d client(s) hung at shutdown\n",
                  r.hung_clients);
    if (r.metrics.committed() == 0)
      std::printf("  WARNING: zero committed transactions\n");
    if (r.watchdog_trips > 0)
      std::printf("  WARNING: watchdog tripped %llu time(s)\n",
                  static_cast<unsigned long long>(r.watchdog_trips));
    if (r.invariant_violations > 0)
      std::printf("  WARNING: %llu invariant violation(s)\n",
                  static_cast<unsigned long long>(r.invariant_violations));
    if (r.interrupted) {
      std::printf("  interrupted: measurement window cut short, drained "
                  "cleanly\n");
      break;
    }
  }
  return all_ok ? 0 : 1;
}

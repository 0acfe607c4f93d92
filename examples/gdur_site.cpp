// gdur_site: one G-DUR site as its own OS process.
//
// The multi-process deployment runs one gdur_site per site; processes find
// each other over real TCP (each dials every peer, boot order free) and
// clients connect to each site's front door (front::FrontServer) with the
// GdurClient API. Contrast with gdur_live, which hosts every site in one
// process over loopback.
//
//   $ ./examples/gdur_site --config site0.conf
//
// Config file: one key=value per line, '#' comments. Keys:
//   sites=3                      total sites (required)
//   self=0                       this process's site id (required)
//   peer.0=127.0.0.1:7100        inter-site endpoint of site 0 (one per
//   peer.1=127.0.0.1:7101        site, required; self's entry is the port
//   peer.2=127.0.0.2:7102        this process binds)
//   protocol=P-Store             registry protocol name
//   client_port=0                front-door port (0 = ephemeral)
//   window=64                    per-session in-flight window
//   pushback_hi=512              cert-queue depth engaging pushback
//   pushback_lo=128              depth releasing it
//   objects_per_site=4096        keyspace
//   partitions_per_site=2
//   replication=1
//   shards_per_site=1
//   coalesce=0                   1 = batch small inter-site messages
//   history=site0.hist           history dump written at shutdown
//   snapshot=site0               obs snapshot prefix: .json/.prom every
//                                second and at shutdown, flight dumps
//                                to .flight.txt/.flight.trace.json
//
// Prints "READY port=<front door port>" on stdout once serving (the
// deployment script parses it), then runs until SIGTERM/SIGINT: stops
// admitting, waits for in-flight requests to finish, writes the history
// dump + obs snapshot, and exits 0. A second signal force-exits. The
// whole time, a live::PlaneAttendant scans the stall watchdog.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "front/history_log.h"
#include "front/server.h"
#include "front/signals.h"
#include "live/live_cluster.h"
#include "live/live_runner.h"
#include "obs/plane.h"
#include "protocols/protocols.h"

using namespace gdur;

namespace {

struct SiteOptions {
  int sites = 0;
  SiteId self = kNoSite;
  std::vector<live::SiteEndpoint> peers;
  std::string protocol = "P-Store";
  std::uint16_t client_port = 0;
  std::uint32_t window = 64;
  std::size_t pushback_hi = 512;
  std::size_t pushback_lo = 128;
  std::uint64_t objects_per_site = 4096;
  int partitions_per_site = 2;
  int replication = 1;
  int shards_per_site = 1;
  std::uint64_t seed = 42;
  bool coalesce = false;
  std::string history_path;
  std::string snapshot_prefix;
};

bool parse_endpoint(const std::string& v, live::SiteEndpoint& ep) {
  const auto colon = v.rfind(':');
  if (colon == std::string::npos) return false;
  ep.host = v.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(std::stoi(v.substr(colon + 1)));
  return !ep.host.empty() && ep.port != 0;
}

bool load_config(const std::string& path, SiteOptions& opt) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gdur_site: cannot open config %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) continue;
    if (key == "sites") {
      opt.sites = std::stoi(val);
      opt.peers.resize(static_cast<std::size_t>(opt.sites));
    } else if (key == "self") {
      opt.self = static_cast<SiteId>(std::stoul(val));
    } else if (key.rfind("peer.", 0) == 0) {
      const auto idx = static_cast<std::size_t>(std::stoul(key.substr(5)));
      if (idx >= opt.peers.size()) opt.peers.resize(idx + 1);
      if (!parse_endpoint(val, opt.peers[idx])) {
        std::fprintf(stderr, "gdur_site: bad endpoint %s\n", val.c_str());
        return false;
      }
    } else if (key == "protocol") {
      opt.protocol = val;
    } else if (key == "client_port") {
      opt.client_port = static_cast<std::uint16_t>(std::stoul(val));
    } else if (key == "window") {
      opt.window = static_cast<std::uint32_t>(std::stoul(val));
    } else if (key == "pushback_hi") {
      opt.pushback_hi = std::stoul(val);
    } else if (key == "pushback_lo") {
      opt.pushback_lo = std::stoul(val);
    } else if (key == "objects_per_site") {
      opt.objects_per_site = std::stoull(val);
    } else if (key == "partitions_per_site") {
      opt.partitions_per_site = std::stoi(val);
    } else if (key == "replication") {
      opt.replication = std::stoi(val);
    } else if (key == "shards_per_site") {
      opt.shards_per_site = std::stoi(val);
    } else if (key == "seed") {
      opt.seed = std::stoull(val);
    } else if (key == "coalesce") {
      opt.coalesce = val != "0" && val != "false";
    } else if (key == "history") {
      opt.history_path = val;
    } else if (key == "snapshot") {
      opt.snapshot_prefix = val;
    } else {
      std::fprintf(stderr, "gdur_site: unknown key %s\n", key.c_str());
      return false;
    }
  }
  if (opt.sites < 2 || opt.self == kNoSite ||
      opt.self >= static_cast<SiteId>(opt.sites)) {
    std::fprintf(stderr, "gdur_site: need sites>=2 and a valid self\n");
    return false;
  }
  for (int s = 0; s < opt.sites; ++s) {
    if (opt.peers[static_cast<std::size_t>(s)].port == 0) {
      std::fprintf(stderr, "gdur_site: missing peer.%d endpoint\n", s);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: gdur_site --config FILE\n");
      return 2;
    }
  }
  SiteOptions opt;
  if (config_path.empty() || !load_config(config_path, opt)) return 2;

  front::install_shutdown_handler();

  obs::ObsPlaneConfig pc;
  pc.sites = opt.sites;
  obs::ObsPlane plane(pc);

  live::LiveConfig lc;
  lc.base.sites = opt.sites;
  lc.base.replication = opt.replication;
  lc.base.objects_per_site = opt.objects_per_site;
  lc.base.partitions_per_site = opt.partitions_per_site;
  lc.base.shards_per_site = opt.shards_per_site;
  lc.base.seed = opt.seed;
  lc.base.plane = &plane;
  lc.self = opt.self;
  lc.peers = opt.peers;
  lc.coalesce = opt.coalesce;

  std::fprintf(stderr, "gdur_site: site %u/%d connecting mesh...\n",
               static_cast<unsigned>(opt.self), opt.sites);
  live::LiveCluster cluster(lc, protocols::by_name(opt.protocol));

  front::HistoryDumpHeader hdr;
  hdr.protocol = opt.protocol;
  hdr.criterion = live::criterion_of(opt.protocol);
  hdr.sites = static_cast<std::uint32_t>(opt.sites);
  hdr.replication = static_cast<std::uint32_t>(opt.replication);
  hdr.objects = cluster.partitioner().objects();
  hdr.partitions_per_site = static_cast<std::uint32_t>(opt.partitions_per_site);
  hdr.self = opt.self;
  front::HistoryLogWriter hist(hdr);
  cluster.set_install_observer(
      [&hist](const core::Cluster::InstallEvent& e) { hist.add_install(e); });

  cluster.start();
  live::PlaneAttendant attendant(cluster, opt.snapshot_prefix);

  front::FrontConfig fc;
  fc.site = opt.self;
  fc.port = opt.client_port;
  fc.window = opt.window;
  fc.pushback_hi = opt.pushback_hi;
  fc.pushback_lo = opt.pushback_lo;
  front::FrontServer server(cluster, fc);
  server.set_stats(&plane.slot(opt.self));
  server.set_observer([&hist](const core::TxnRecord& t, bool committed,
                              SimTime response) {
    hist.add_txn(t, committed, response);
  });
  server.start();

  std::printf("READY port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (!front::shutdown_requested()) {
    // gdur-lint: allow(live/blocking-call) main-thread service loop, not runtime code
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Drain: stop admitting (reactor down — clients see the close), let
  // in-flight requests finish on the site thread, then tear down.
  std::fprintf(stderr, "gdur_site: draining site %u...\n",
               static_cast<unsigned>(opt.self));
  server.stop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.requests_inflight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    // gdur-lint: allow(live/blocking-call) drain poll on the main thread, not runtime code
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool drained = server.requests_inflight() == 0;
  attendant.finish();  // last scan and snapshot while the probes are live
  cluster.stop();

  bool dumped = true;
  if (!opt.history_path.empty()) {
    dumped = hist.write_file(opt.history_path);
    if (!dumped)
      std::fprintf(stderr, "gdur_site: FAILED to write %s\n",
                   opt.history_path.c_str());
  }
  std::fprintf(stderr,
               "gdur_site: site %u done, served %llu txns (%s drain)\n",
               static_cast<unsigned>(opt.self),
               static_cast<unsigned long long>(hist.txn_count()),
               drained ? "clean" : "timed-out");
  // Nonzero exit only on real failure: an undrained request or a failed
  // dump is one, an operator-requested shutdown is not.
  return (drained && dumped) ? 0 : 1;
}

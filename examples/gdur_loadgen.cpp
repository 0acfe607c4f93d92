// gdur_loadgen: external load generator for a multi-process G-DUR cluster.
//
// Connects GdurClient sessions to one or more gdur_site front doors and
// drives the paper's YCSB-style mixes against them, measuring per-request
// latency from the outside — the client-visible numbers, not the server's
// own accounting.
//
//   $ ./examples/gdur_loadgen --site 127.0.0.1:7200 --site 127.0.0.1:7201
//        [--clients 8] [--secs 5]
//
// Flags:
//   --site HOST:PORT  front door of one site (repeat per site; clients are
//                     assigned round-robin)
//   --clients N       closed-loop flows, one session each (default 8)
//   --secs S          run duration (default 5; 0 = until --txns)
//   --txns N          stop after N completed transactions (0 = until --secs)
//   --rate TPS        open-loop Poisson arrivals of one-shot stored
//                     transactions instead of closed loops, paced per flow
//                     at rate/clients; refusals (window full / pushback /
//                     lost session) are counted as shed, never queued, and
//                     latency is timed from each arrival's due time
//   --stored          closed loop, but one-shot stored txns instead of
//                     interactive begin/read/write/commit
//   --workload A|B|C  mix (default A)   --ro R  read-only ratio (default 0.8)
//   --objects N       total keyspace, must match the cluster config
//                     (default: sites x 4096)
//   --partitions P    partitions per site (default 2, must match)
//   --replication R   (default 1, must match)
//   --seed N          workload seed (default 7)
//   --json FILE       write the result object to FILE as well as stdout
//
// Output: one JSON object with committed/aborted/shed counts, throughput,
// client-observed latency percentiles and, for --rate, the arrivals
// scheduled and issued and the pacer's lag. Exit 0 iff every session
// connected and at least one transaction committed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "front/client.h"
#include "front/signals.h"
#include "harness/metrics.h"
#include "live/pacer.h"
#include "store/partitioner.h"
#include "workload/workload.h"

using namespace gdur;

namespace {

struct Target {
  std::string host;
  std::uint16_t port = 0;
};

struct Options {
  std::vector<Target> sites;
  int clients = 8;
  double secs = 5.0;
  std::uint64_t txns = 0;
  double rate = 0.0;
  bool stored = false;
  std::string workload = "A";
  double ro = 0.8;
  std::uint64_t objects = 0;
  int partitions = 2;
  int replication = 1;
  std::uint64_t seed = 7;
  std::string json_path;
};

/// One flow's results; open-loop completions land here from the reader
/// thread, so the accumulator is locked.
struct FlowStats {
  std::mutex mu;
  harness::Metrics m;
  live::PaceStats paced;  // open loop only; written by the flow's thread

  void done(bool committed, bool read_only, SimDuration lat) {
    std::lock_guard<std::mutex> g(mu);
    if (committed) {
      (read_only ? m.committed_ro : m.committed_upd)++;
      m.txn_latency.add(lat);
    } else {
      (read_only ? m.aborted_ro : m.aborted_upd)++;
    }
  }
};

std::atomic<std::uint64_t> g_completed{0};
std::atomic<bool> g_stop{false};

SimDuration since_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool budget_spent(const Options& opt) {
  return opt.txns > 0 &&
         g_completed.load(std::memory_order_relaxed) >= opt.txns;
}

/// Interactive flow: keys issued one at a time, like the in-process
/// harness's client loop. A failed read/write still commits to release the
/// server-side handle; the verdict is already a foregone abort.
void run_interactive(front::GdurClient& c, workload::Generator& gen,
                     FlowStats& fs, const Options& opt) {
  while (!g_stop.load(std::memory_order_relaxed) && !budget_spent(opt)) {
    const auto prof = gen.next();
    const auto t0 = std::chrono::steady_clock::now();
    const auto h = c.begin_sync();
    if (!h) return;  // connection gone
    bool alive = true;
    for (const auto x : prof.reads)
      if (!c.read_sync(*h, x)) {
        alive = false;
        break;
      }
    if (alive)
      for (const auto x : prof.writes)
        if (!c.write_sync(*h, x)) {
          alive = false;
          break;
        }
    const bool committed = c.commit_sync(*h) && alive;
    fs.done(committed, prof.read_only, since_ns(t0));
    g_completed.fetch_add(1, std::memory_order_relaxed);
  }
}

void run_stored(front::GdurClient& c, workload::Generator& gen, FlowStats& fs,
                const Options& opt) {
  while (!g_stop.load(std::memory_order_relaxed) && !budget_spent(opt)) {
    const auto prof = gen.next();
    const auto t0 = std::chrono::steady_clock::now();
    const bool committed = c.stored_sync(prof.reads, prof.writes);
    if (!c.connected()) return;
    fs.done(committed, prof.read_only, since_ns(t0));
    g_completed.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Open loop: this flow's share of the arrivals as pipelined stored
/// transactions. try_submit never blocks — when the window is full, the
/// server pushed back or the session is gone, the arrival is shed and
/// counted, keeping the offered rate honest under overload.
void run_open_loop(front::GdurClient& c, workload::Generator& gen,
                   FlowStats& fs, const Options& opt,
                   std::chrono::steady_clock::time_point epoch,
                   std::uint64_t seed) {
  workload::ArrivalSchedule arrivals(opt.rate / opt.clients, seed);
  fs.paced = live::pace(
      arrivals, epoch,
      opt.secs > 0 ? seconds(opt.secs) : std::numeric_limits<SimTime>::max(),
      [] { return g_stop.load(std::memory_order_relaxed); },
      [&](SimTime due) {
        const auto prof = gen.next();
        const bool ro = prof.read_only;
        return c.try_submit(
            net::codec::ClientOp::kStored, 0, 0, prof.reads, prof.writes,
            [&fs, epoch, due, ro](const front::GdurClient::Resp& r) {
              fs.done(r.ok, ro, since_ns(epoch) - due);
              g_completed.fetch_add(1, std::memory_order_relaxed);
            });
      });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--site") == 0) {
      const std::string v = val();
      const auto colon = v.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad --site %s (want HOST:PORT)\n", v.c_str());
        return 2;
      }
      opt.sites.push_back(
          {v.substr(0, colon),
           static_cast<std::uint16_t>(std::stoi(v.substr(colon + 1)))});
    } else if (std::strcmp(a, "--clients") == 0) {
      opt.clients = std::atoi(val());
    } else if (std::strcmp(a, "--secs") == 0) {
      opt.secs = std::atof(val());
    } else if (std::strcmp(a, "--txns") == 0) {
      opt.txns = std::strtoull(val(), nullptr, 10);
    } else if (std::strcmp(a, "--rate") == 0) {
      opt.rate = std::atof(val());
    } else if (std::strcmp(a, "--stored") == 0) {
      opt.stored = true;
    } else if (std::strcmp(a, "--workload") == 0) {
      opt.workload = val();
    } else if (std::strcmp(a, "--ro") == 0) {
      opt.ro = std::atof(val());
    } else if (std::strcmp(a, "--objects") == 0) {
      opt.objects = std::strtoull(val(), nullptr, 10);
    } else if (std::strcmp(a, "--partitions") == 0) {
      opt.partitions = std::atoi(val());
    } else if (std::strcmp(a, "--replication") == 0) {
      opt.replication = std::atoi(val());
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(val(), nullptr, 10);
    } else if (std::strcmp(a, "--json") == 0) {
      opt.json_path = val();
    } else {
      std::fprintf(stderr, "unknown flag: %s (see header comment)\n", a);
      return 2;
    }
  }
  if (opt.sites.empty()) {
    std::fprintf(stderr, "gdur_loadgen: need at least one --site\n");
    return 2;
  }
  if (opt.secs <= 0 && opt.txns == 0) {
    std::fprintf(stderr, "gdur_loadgen: need --secs > 0 or --txns > 0\n");
    return 2;
  }
  const int sites = static_cast<int>(opt.sites.size());
  if (opt.objects == 0)
    opt.objects = static_cast<std::uint64_t>(sites) * 4096;

  // The generator needs the cluster's partitioner shape (total keyspace +
  // placement) to produce the same global transactions the in-process
  // harness would.
  store::Partitioner part(sites, opt.replication, opt.objects,
                          opt.partitions);
  const auto spec = opt.workload == "B" ? workload::WorkloadSpec::B(opt.ro)
                    : opt.workload == "C"
                        ? workload::WorkloadSpec::C(opt.ro)
                        : workload::WorkloadSpec::A(opt.ro);

  front::install_shutdown_handler();

  // Connect every flow's session up front; a site still booting is retried
  // inside connect().
  std::vector<std::unique_ptr<front::GdurClient>> clients;
  for (int i = 0; i < opt.clients; ++i) {
    const auto& tgt = opt.sites[static_cast<std::size_t>(i % sites)];
    front::ClientConfig cc;
    cc.host = tgt.host;
    cc.port = tgt.port;
    clients.push_back(std::make_unique<front::GdurClient>(cc));
    if (!clients.back()->connect()) {
      std::fprintf(stderr, "gdur_loadgen: cannot connect to %s:%u\n",
                   tgt.host.c_str(), static_cast<unsigned>(tgt.port));
      return 1;
    }
  }
  std::fprintf(stderr, "gdur_loadgen: %d flows connected (protocol %s)\n",
               opt.clients, clients[0]->protocol().c_str());

  std::vector<FlowStats> stats(static_cast<std::size_t>(opt.clients));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < opt.clients; ++i) {
    threads.emplace_back([&clients, &stats, &part, &spec, &opt, t0, i] {
      auto& c = *clients[static_cast<std::size_t>(i)];
      auto& fs = stats[static_cast<std::size_t>(i)];
      workload::Generator gen(spec, part, c.site(),
                              opt.seed + static_cast<std::uint64_t>(i));
      if (opt.rate > 0)
        run_open_loop(c, gen, fs, opt, t0,
                      opt.seed * 7919 + static_cast<std::uint64_t>(i));
      else if (opt.stored)
        run_stored(c, gen, fs, opt);
      else
        run_interactive(c, gen, fs, opt);
    });
  }

  // Main thread ends the run: duration elapsed, budget reached, or signal.
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (front::shutdown_requested() || budget_spent(opt) ||
        (opt.secs > 0 && to_seconds(since_ns(t0)) >= opt.secs))
      g_stop.store(true, std::memory_order_relaxed);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : threads) t.join();
  const double wall = to_seconds(since_ns(t0));
  // Close after joining so pipelined responses still in flight fail fast
  // rather than hanging the flows.
  std::uint64_t pushbacks = 0;
  for (auto& c : clients) {
    pushbacks += c->pushbacks();
    c->close();
  }

  harness::Metrics m;
  live::PaceStats paced;
  for (auto& fs : stats) {
    std::lock_guard<std::mutex> g(fs.mu);
    m.merge_from(fs.m);
    paced.scheduled += fs.paced.scheduled;
    paced.issued += fs.paced.issued;
    paced.shed += fs.paced.shed;
    paced.lag.merge_from(fs.paced.lag);
  }
  const double tps =
      wall > 0 ? static_cast<double>(m.committed()) / wall : 0.0;

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"protocol\": \"%s\", \"sites\": %d, \"clients\": %d, "
      "\"mode\": \"%s\", \"offered_tps\": %.1f, \"secs\": %.3f,\n"
      " \"scheduled\": %llu, \"issued\": %llu, \"lag_p99_ms\": %.3f,\n"
      " \"committed\": %llu, \"aborted\": %llu, \"shed\": %llu, "
      "\"committed_tps\": %.1f, \"pushbacks\": %llu,\n"
      " \"latency_ms\": {\"mean\": %.3f, \"p50\": %.3f, \"p99\": %.3f, "
      "\"max\": %.3f}}\n",
      clients[0]->protocol().c_str(), sites, opt.clients,
      opt.rate > 0 ? "open" : (opt.stored ? "stored" : "interactive"),
      opt.rate, wall, static_cast<unsigned long long>(paced.scheduled),
      static_cast<unsigned long long>(paced.issued),
      paced.lag.percentile_ms(0.99),
      static_cast<unsigned long long>(m.committed()),
      static_cast<unsigned long long>(m.aborted()),
      static_cast<unsigned long long>(paced.shed), tps,
      static_cast<unsigned long long>(pushbacks), m.txn_latency.mean_ms(),
      m.txn_latency.percentile_ms(0.5), m.txn_latency.percentile_ms(0.99),
      m.txn_latency.max_ms());
  std::fputs(buf, stdout);
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << buf;
  }
  return m.committed() > 0 ? 0 : 1;
}

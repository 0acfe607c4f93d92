#include "live/live_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "checker/history.h"
#include "common/rng.h"
#include "front/signals.h"
#include "live/live_cluster.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur::live {

namespace {

using std::chrono::steady_clock;

/// Everything one site's clients share; touched only on that site's
/// mailbox thread once the run is going.
struct SiteCollector {
  harness::Metrics metrics;
  std::vector<checker::TxnOutcome> outcomes;
  std::vector<core::Cluster::InstallEvent> installs;
};

/// One closed-loop client flow: exactly one interactive transaction in
/// flight, relaunched from its own completion callback on the
/// coordinator's mailbox thread.
struct ClosedLoop : std::enable_shared_from_this<ClosedLoop> {
  LiveCluster& cl;
  SiteId site;
  workload::Generator gen;
  SiteCollector& col;
  std::atomic<bool>& running;
  std::atomic<int>& inflight;
  workload::TxnObserver observer;

  ClosedLoop(LiveCluster& c, SiteId s, const workload::WorkloadSpec& spec,
             SiteCollector& sc, std::atomic<bool>& run, std::atomic<int>& inf,
             std::uint64_t seed)
      : cl(c),
        site(s),
        gen(spec, c.partitioner(), s, seed),
        col(sc),
        running(run),
        inflight(inf) {
    observer = [this](const core::TxnRecord& t, bool committed) {
      col.outcomes.push_back({t, committed, cl.now()});
    };
  }

  void next() {
    if (!running.load(std::memory_order_acquire)) {
      inflight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    auto self = shared_from_this();
    workload::run_transaction(
        cl, site, std::make_shared<workload::TxnProfile>(gen.next()),
        col.metrics, observer, [self] { self->next(); });
  }
};

/// Open-loop Poisson source for one site: arrivals fire regardless of
/// completions, on an absolute schedule paced by the timer-wheel thread.
/// Each firing releases every arrival already due and posts it to the
/// site, so neither the wheel's 1 ms ticks nor a backlogged site thread
/// thin the offered rate (the site's queue shows as latency instead).
struct OpenLoop : std::enable_shared_from_this<OpenLoop> {
  LiveCluster& cl;
  SiteId site;
  // Only the timer thread touches these four (run_live reads `issued`
  // once the cluster has stopped).
  workload::Generator gen;
  Rng arrivals;
  SimTime next_due = 0;      // intended time of the next arrival
  std::uint64_t issued = 0;  // arrivals released so far
  double rate;  // per-site arrivals per second
  SiteCollector& col;
  std::atomic<bool>& running;
  std::atomic<int>& inflight;
  workload::TxnObserver observer;

  OpenLoop(LiveCluster& c, SiteId s, const workload::WorkloadSpec& spec,
           SiteCollector& sc, std::atomic<bool>& run, std::atomic<int>& inf,
           double site_rate, std::uint64_t seed)
      : cl(c),
        site(s),
        gen(spec, c.partitioner(), s, seed),
        arrivals(mix64(seed ^ 0xabcdef)),
        next_due(c.now()),
        rate(site_rate),
        col(sc),
        running(run),
        inflight(inf) {
    observer = [this](const core::TxnRecord& t, bool committed) {
      col.outcomes.push_back({t, committed, cl.now()});
    };
  }

  void release() {
    if (!running.load(std::memory_order_acquire)) return;
    const SimTime now = cl.now();
    auto self = shared_from_this();
    while (next_due <= now) {
      ++issued;
      inflight.fetch_add(1, std::memory_order_acq_rel);
      cl.post(site, [self, profile = std::make_shared<workload::TxnProfile>(
                               gen.next())] {
        workload::run_transaction(
            self->cl, self->site, profile, self->col.metrics, self->observer,
            [self] { self->inflight.fetch_sub(1, std::memory_order_acq_rel); });
      });
      next_due += seconds(-std::log(1.0 - arrivals.next_double()) / rate);
    }
    cl.on_timer(next_due - now, [self] { self->release(); });
  }
};

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// Background observability attendant: scans the stall watchdog a few times
/// a second and periodically writes plane snapshots when a prefix is
/// configured (the snapshots are the live run's time series).
class PlaneAttendant {
 public:
  PlaneAttendant(LiveCluster& cluster, const LiveRunConfig& cfg)
      : cl_(cluster), cfg_(cfg), plane_(cluster.plane()) {
    if (!cfg_.snapshot_prefix.empty()) {
      plane_.set_dump_sink([prefix = cfg_.snapshot_prefix](
                               const char* /*reason*/, const std::string& text,
                               const std::string& chrome_json) {
        write_text_file(prefix + ".flight.txt", text);
        write_text_file(prefix + ".flight.trace.json", chrome_json);
      });
    }
    thread_ = std::thread([this] { loop(); });
  }

  /// Runs one last scan + snapshot, then joins. Call before cluster.stop()
  /// so the final scan still sees live probes.
  void finish() {
    if (!thread_.joinable()) return;
    running_.store(false, std::memory_order_release);
    thread_.join();
  }

  ~PlaneAttendant() { finish(); }

 private:
  void loop() {
    const auto snap_every =
        std::chrono::duration_cast<steady_clock::duration>(
            std::chrono::duration<double>(
                std::max(cfg_.snapshot_every_secs, 0.05)));
    auto next_snap = steady_clock::now() + snap_every;
    while (running_.load(std::memory_order_acquire)) {
      // gdur-lint: allow(live/blocking-call) attendant thread pacing, not the event loop
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      const SimTime now = cl_.now();
      plane_.watchdog().scan(now);
      if (!cfg_.snapshot_prefix.empty() && steady_clock::now() >= next_snap) {
        snapshot(now);
        next_snap += snap_every;
      }
    }
    const SimTime now = cl_.now();
    plane_.watchdog().scan(now);
    if (!cfg_.snapshot_prefix.empty()) snapshot(now);
  }

  void snapshot(SimTime now) {
    write_text_file(cfg_.snapshot_prefix + ".json", plane_.snapshot_json(now));
    write_text_file(cfg_.snapshot_prefix + ".prom",
                    plane_.snapshot_prometheus(now));
  }

  LiveCluster& cl_;
  const LiveRunConfig& cfg_;
  obs::ObsPlane& plane_;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

}  // namespace

const char* criterion_of(const std::string& protocol) {
  return protocols::by_name(protocol).criterion;
}

LiveRunResult run_live(const LiveRunConfig& cfg) {
  LiveConfig lc;
  lc.base.sites = cfg.sites;
  lc.base.replication = cfg.replication;
  lc.base.objects_per_site = cfg.objects_per_site;
  lc.base.partitions_per_site = cfg.partitions_per_site;
  lc.base.seed = cfg.seed;
  lc.base.shards_per_site = cfg.shards_per_site;
  lc.base.live_certify_model = cfg.live_certify_model;
  lc.base.cost = cfg.cost;
  lc.base.trace = cfg.trace;
  lc.base.plane = cfg.plane;
  lc.delay_scale = cfg.delay_scale;
  lc.coalesce = cfg.coalesce;
  LiveCluster cluster(lc, protocols::by_name(cfg.protocol));
  obs::ObsPlane& plane = cluster.plane();

  std::vector<SiteCollector> col(static_cast<std::size_t>(cfg.sites));
  checker::History history;
  history.attach(cluster);  // installs its own observer; replaced next line
  cluster.set_install_observer([&col](const core::Cluster::InstallEvent& e) {
    col[e.site].installs.push_back(e);
  });

  std::atomic<bool> running{true};
  std::atomic<int> inflight{0};

  cluster.start();
  PlaneAttendant attendant(cluster, cfg);

  std::vector<std::shared_ptr<ClosedLoop>> flows;
  std::vector<std::shared_ptr<OpenLoop>> sources;
  if (cfg.open_loop_tps > 0) {
    const double site_rate = cfg.open_loop_tps / cfg.sites;
    for (int s = 0; s < cfg.sites; ++s) {
      auto src = std::make_shared<OpenLoop>(
          cluster, static_cast<SiteId>(s), cfg.workload, col[s], running,
          inflight, site_rate, mix64(cfg.seed * 1000 + s));
      sources.push_back(src);
      cluster.on_timer(0, [src] { src->release(); });
    }
  } else {
    for (int i = 0; i < cfg.clients; ++i) {
      const auto site = static_cast<SiteId>(i % cfg.sites);
      auto flow = std::make_shared<ClosedLoop>(
          cluster, site, cfg.workload, col[site], running, inflight,
          mix64(cfg.seed * 1000 + i));
      flows.push_back(flow);
      inflight.fetch_add(1, std::memory_order_acq_rel);
      // Launch on the site's own thread: all of a site's client state is
      // only ever touched there.
      cluster.post(site, [flow] { flow->next(); });
    }
  }

  const auto t_start = steady_clock::now();
  // Interruptible measurement window: SIGTERM/SIGINT (front::signals) ends
  // the window early and proceeds to the normal drain, so an operator kill
  // still yields a complete, checkable history and a clean exit.
  const bool interrupted = front::interruptible_sleep(cfg.secs);
  running.store(false, std::memory_order_release);
  const double wall =
      std::chrono::duration<double>(steady_clock::now() - t_start).count();

  // Drain: let in-flight transactions terminate so the recorded history is
  // complete; anything still stuck after the grace period is reported.
  const auto deadline =
      steady_clock::now() + std::chrono::duration_cast<steady_clock::duration>(
                                std::chrono::duration<double>(cfg.drain_secs));
  while (inflight.load(std::memory_order_acquire) > 0 &&
         steady_clock::now() < deadline) {
    // gdur-lint: allow(live/blocking-call) drain poll on the harness thread, not the event loop
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int hung = inflight.load(std::memory_order_acquire);
  attendant.finish();  // final scan while probes are live
  cluster.stop();

  LiveRunResult res;
  res.protocol = cfg.protocol;
  res.criterion = criterion_of(cfg.protocol);
  res.wall_secs = wall;
  res.messages = cluster.live_messages();
  res.bytes = cluster.live_bytes();
  res.batches = cluster.batches_sent();
  res.batched_msgs = cluster.batched_msgs();
  res.interrupted = interrupted;
  res.hung_clients = hung;
  for (const auto& src : sources) res.offered += src->issued;
  for (auto& c : col) {
    res.metrics.merge_from(c.metrics);
    for (const auto& o : c.outcomes)
      history.record_txn(o.txn, o.committed, o.response_time);
    for (const auto& e : c.installs) history.record_install(e);
  }
  res.throughput_tps =
      wall > 0 ? static_cast<double>(res.metrics.committed()) / wall : 0.0;
  if (cfg.check) {
    const auto cr = history.check_criterion(res.criterion);
    res.checker_ok = cr.ok;
    res.checker_detail = cr.detail;
    // A failed criterion is exactly what the flight recorder exists for:
    // dump the retained window with the failure as the reason.
    if (!cr.ok) plane.dump_flight("checker");
  }
  res.watchdog_trips = plane.watchdog().trips();
  res.invariant_violations = plane.invariants().violations();
  res.flight_dumps = plane.dumps();
  return res;
}

}  // namespace gdur::live

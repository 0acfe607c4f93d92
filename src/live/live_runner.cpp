#include "live/live_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "checker/history.h"
#include "common/rng.h"
#include "front/signals.h"
#include "live/live_cluster.h"
#include "live/pacer.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur::live {

namespace {

using std::chrono::steady_clock;

/// Grace period for in-flight transactions after the measurement window.
constexpr auto kDrainGrace = std::chrono::seconds(2);

/// Everything one site's clients share; touched only on that site's
/// mailbox thread once the run is going.
struct SiteCollector {
  harness::Metrics metrics;
  std::vector<checker::TxnOutcome> outcomes;
  std::vector<core::Cluster::InstallEvent> installs;
};

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace

PlaneAttendant::PlaneAttendant(LiveCluster& cluster,
                               std::string snapshot_prefix,
                               double snapshot_every_secs)
    : cl_(cluster),
      plane_(cluster.plane()),
      prefix_(std::move(snapshot_prefix)),
      every_secs_(std::max(snapshot_every_secs, 0.05)) {
  if (!prefix_.empty()) {
    plane_.set_dump_sink([prefix = prefix_](const char* /*reason*/,
                                            const std::string& text,
                                            const std::string& chrome_json) {
      write_text_file(prefix + ".flight.txt", text);
      write_text_file(prefix + ".flight.trace.json", chrome_json);
    });
  }
  thread_ = std::thread([this] { loop(); });
}

void PlaneAttendant::finish() {
  if (!thread_.joinable()) return;
  running_.store(false, std::memory_order_release);
  thread_.join();
}

void PlaneAttendant::loop() {
  const auto snap_every = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(every_secs_));
  auto next_snap = steady_clock::now() + snap_every;
  while (running_.load(std::memory_order_acquire)) {
    // gdur-lint: allow(live/blocking-call) attendant thread pacing, not the event loop
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const SimTime now = cl_.now();
    plane_.watchdog().scan(now);
    if (!prefix_.empty() && steady_clock::now() >= next_snap) {
      snapshot(now);
      next_snap += snap_every;
    }
  }
  const SimTime now = cl_.now();
  plane_.watchdog().scan(now);
  if (!prefix_.empty()) snapshot(now);
}

void PlaneAttendant::snapshot(SimTime now) {
  write_text_file(prefix_ + ".json", plane_.snapshot_json(now));
  write_text_file(prefix_ + ".prom", plane_.snapshot_prometheus(now));
}

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
  history.attach_partitioner(cluster.partitioner());
  cluster.set_install_observer([&col](const core::Cluster::InstallEvent& e) {
    col[e.site].installs.push_back(e);
  });
  // Outcomes land on the coordinator's mailbox thread, in its collector.
  std::vector<workload::TxnObserver> observers;
  for (auto& c : col)
    observers.emplace_back(
        [&cluster, &c](const core::TxnRecord& t, bool committed) {
          c.outcomes.push_back({t, committed, cluster.now()});
        });

  cluster.start();
  PlaneAttendant attendant(cluster, cfg.snapshot_prefix);

  LiveRunResult res;
  std::vector<std::unique_ptr<workload::ClientActor>> clients;
  std::atomic<int> inflight{0};  // open-loop transactions not yet finished
  const SimTime win_start = cluster.now();
  // SIGTERM/SIGINT (front::signals) end the window early and proceed to the
  // normal drain, so an operator kill still yields a complete, checkable
  // history and a clean exit.
  if (cfg.open_loop_tps > 0) {
    std::vector<workload::Generator> gens;
    for (int s = 0; s < cfg.sites; ++s)
      gens.emplace_back(cfg.workload, cluster.partitioner(),
                        static_cast<SiteId>(s), mix64(cfg.seed * 1000 + s));
    Rng pick(mix64(cfg.seed ^ 0x73697465));
    workload::ArrivalSchedule arrivals(cfg.open_loop_tps,
                                       mix64(cfg.seed ^ 0xabcdef));
    arrivals.start(win_start);
    auto paced = pace(
        arrivals, cluster.epoch(), win_start + seconds(cfg.secs),
        &front::shutdown_requested, [&](SimTime due) {
          const auto s = static_cast<SiteId>(pick.next_below(
              static_cast<std::uint64_t>(cfg.sites)));
          inflight.fetch_add(1, std::memory_order_acq_rel);
          workload::run_transaction(
              cluster, s,
              std::make_shared<const workload::TxnProfile>(gens[s].next()),
              col[s].metrics, observers[s],
              [&inflight] {
                inflight.fetch_sub(1, std::memory_order_acq_rel);
              },
              due);
          return true;
        });
    res.interrupted = front::shutdown_requested();
    res.scheduled = paced.scheduled;
    res.offered = paced.issued;
    res.lag = paced.lag;
  } else {
    for (int i = 0; i < cfg.clients; ++i) {
      const auto site = static_cast<SiteId>(i % cfg.sites);
      clients.push_back(std::make_unique<workload::ClientActor>(
          cluster, site, cfg.workload, col[site].metrics,
          mix64(cfg.seed * 1000 + i)));
      clients.back()->set_observer(observers[site]);
      clients.back()->start(win_start);
    }
    res.interrupted = front::interruptible_sleep(cfg.secs);
    for (auto& c : clients) c->stop();
  }
  const SimTime win_end = cluster.now();

  // Drain: let in-flight transactions terminate so the recorded history is
  // complete; anything still stuck after the grace period is reported.
  const auto hung = [&] {
    int n = inflight.load(std::memory_order_acquire);
    for (const auto& c : clients) n += c->idle() ? 0 : 1;
    return n;
  };
  const auto deadline = steady_clock::now() + kDrainGrace;
  while (hung() > 0 && steady_clock::now() < deadline) {
    // gdur-lint: allow(live/blocking-call) drain poll on the harness thread, not the event loop
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  res.hung_clients = hung();
  attendant.finish();  // final scan while probes are live
  cluster.stop();

  res.protocol = cfg.protocol;
  res.criterion = criterion_of(cfg.protocol);
  res.wall_secs = to_seconds(win_end - win_start);
  res.messages = cluster.live_messages();
  res.bytes = cluster.live_bytes();
  res.batches = cluster.batches_sent();
  res.batched_msgs = cluster.batched_msgs();
  std::uint64_t in_window = 0;
  for (auto& c : col) {
    res.metrics.merge_from(c.metrics);
    for (const auto& o : c.outcomes) {
      history.record_txn(o.txn, o.committed, o.response_time);
      if (o.committed && o.response_time <= win_end) ++in_window;
    }
    for (const auto& e : c.installs) history.record_install(e);
  }
  res.throughput_tps =
      res.wall_secs > 0 ? static_cast<double>(in_window) / res.wall_secs
                        : 0.0;
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

// engine-closed: the engine alone, closed loop, update-heavy and contended.
//
// An in-process 3-site LiveCluster (GMU: US, 2PC, remote reads, vector
// clocks) with no front door. 32 interactive flows (Workload C, 20%
// read-only, zipfian 0.99) are relaunched from their own completion
// callbacks on their site threads via workload::run_transaction, so the
// generator adds no threads.
//
// This workload runs traced only: it gives the per-layer wall-time view of
// the engine layers (certification, conflict index, 2PC votes, apply) and
// has no end-to-end metrics of its own. A run is an untraced half, then a
// traced half on the same seeds; each half is a series of episodes until
// its share of --seconds is spent (at least one). Each episode sets up a
// fresh cluster, runs a fixed budget of transaction attempts, checks its
// own history and frees it, so memory does not grow with the run length.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checker/history.h"
#include "live/live_cluster.h"
#include "live/live_runner.h"
#include "live_support.h"
#include "protocols/protocols.h"
#include "workload/client.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using namespace gdur;

constexpr int kSites = 3;
constexpr int kFlows = 32;
constexpr std::uint64_t kObjectsPerSite = 4096;
constexpr int kPartitionsPerSite = 2;
constexpr double kReadOnly = 0.2;
const char* const kProtocol = "GMU";
/// Attempts per episode: about 1.5 s on a 4-core host (~33k commits/s at
/// ~22% aborts), and ~3.5 KiB of engine state and history per attempt.
constexpr std::uint64_t kEpisodeAttempts = 50'000;
/// Unmeasured lead-in of each episode, as a share of its attempts.
constexpr double kWarmupShare = 0.1;

/// Per-site client state; touched only on that site's thread.
struct SiteCollector {
  harness::Metrics warm;
  harness::Metrics measured;
  LatencySamples latency;  // measured commits, from begin
  std::vector<checker::TxnOutcome> outcomes;
  std::vector<core::Cluster::InstallEvent> installs;
};

/// One episode's system under test. `budget` non-null = traced: a
/// TraceRecorder (spans off) feeds it through the phase sink, which the
/// recorder calls under its own lock.
class EngineStack {
 public:
  EngineStack(std::uint64_t seed, PhaseBudget* budget)
      : plane(obs::ObsPlaneConfig{.sites = kSites}), sites(kSites) {
    if (budget != nullptr) {
      trace = std::make_unique<obs::TraceRecorder>(
          obs::TraceConfig{.spans = false});
      trace->set_phase_sink(
          [budget](const obs::TxnPhaseReport& rep) { budget->add(rep); });
    }
    live::LiveConfig lc;
    lc.base.sites = kSites;
    lc.base.replication = 1;
    lc.base.objects_per_site = kObjectsPerSite;
    lc.base.partitions_per_site = kPartitionsPerSite;
    lc.base.seed = seed;
    lc.base.plane = &plane;
    lc.base.trace = trace.get();
    cluster = std::make_unique<live::LiveCluster>(lc,
                                                  protocols::by_name(kProtocol));
    history.attach(*cluster);  // adopts the partitioner; observer replaced:
    cluster->set_install_observer([this](const core::Cluster::InstallEvent& e) {
      sites[e.site].installs.push_back(e);
    });
    cluster->start();
  }

  ~EngineStack() { stop(); }
  EngineStack(const EngineStack&) = delete;
  EngineStack& operator=(const EngineStack&) = delete;

  /// Stops the cluster and releases the engine's memory; the collectors
  /// and recorders are kept.
  void stop() {
    if (cluster) cluster->stop();
    cluster.reset();
  }

  obs::ObsPlane plane;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::vector<SiteCollector> sites;
  checker::History history;
  std::unique_ptr<live::LiveCluster> cluster;
};

/// Shared state of one episode's closed loop.
struct Loop {
  std::uint64_t warm = 0;    // attempts before the window opens
  std::uint64_t budget = 0;  // total attempts
  Clock::time_point epoch;
  std::atomic<std::uint64_t> launched{0};
  std::atomic<int> inflight{0};
  /// Launch of the first measured attempt, and retirement of the last flow.
  std::atomic<std::int64_t> window_start_ns{0};
  std::atomic<std::int64_t> window_end_ns{0};
};

/// One closed-loop flow: one interactive transaction in flight, relaunched
/// from its own completion callback on its coordinator's site thread.
struct Flow : std::enable_shared_from_this<Flow> {
  Flow(EngineStack& s, Loop& l, SiteId site, std::uint64_t seed)
      : st(s),
        loop(l),
        site(site),
        gen(workload::WorkloadSpec::C(kReadOnly), s.cluster->partitioner(),
            site, seed) {}

  void next() {
    const std::uint64_t k = loop.launched.fetch_add(1);
    if (k >= loop.budget) {
      if (loop.inflight.fetch_sub(1) == 1)
        loop.window_end_ns.store(ns_since(loop.epoch));
      return;
    }
    SiteCollector& c = st.sites[site];
    const bool measured = k >= loop.warm;
    if (k == loop.warm) loop.window_start_ns.store(ns_since(loop.epoch));
    // Timed on the cluster clock from begin, like Metrics::txn_latency.
    const SimTime begin = st.cluster->now();
    auto self = shared_from_this();
    workload::run_transaction(
        *st.cluster, site, std::make_shared<workload::TxnProfile>(gen.next()),
        measured ? c.measured : c.warm,
        [self, &c](const core::TxnRecord& t, bool committed) {
          self->committed = committed;
          c.outcomes.push_back({t, committed, self->st.cluster->now()});
        },
        [self, &c, begin, measured] {
          if (measured && self->committed)
            c.latency.ns.push_back(self->st.cluster->now() - begin);
          self->next();
        });
  }

  EngineStack& st;
  Loop& loop;
  SiteId site;
  workload::Generator gen;
  bool committed = false;  // outcome of the transaction in flight
};

/// Figures pooled over the episodes of one half.
struct Tally {
  harness::Metrics m;  // measured windows
  LatencySamples latency;
  double window_s = 0;        // measured windows, wall time
  std::uint64_t txns = 0;     // terminated, lead-ins included
  std::uint64_t commits = 0;  // committed, lead-ins included
  int hung = 0;
  int episodes = 0;
  LiveCounters counters;
  harness::LatencyStat mailbox_wait;
  std::uint64_t probes = 0;
  PhaseBudget budget;

  [[nodiscard]] double tps() const {
    return window_s == 0 ? 0.0 : static_cast<double>(m.committed()) / window_s;
  }
};

/// Sets up a fresh cluster, runs one episode on it with the mailbox probe,
/// checks its history and pools its figures.
void run_episode(Tally& t, std::uint64_t seed, bool traced, Result& r) {
  EngineStack st(seed, traced ? &t.budget : nullptr);
  // Growing a collector vector mid-run would copy it on a site thread and
  // stall that site: size them for the whole episode up front.
  for (auto& c : st.sites) {
    c.outcomes.reserve(kEpisodeAttempts / kSites + kFlows);
    c.installs.reserve(kEpisodeAttempts / kSites + kFlows);
    c.latency.ns.reserve(kEpisodeAttempts / kSites + kFlows);
  }
  Loop loop;
  loop.budget = kEpisodeAttempts;
  loop.warm = static_cast<std::uint64_t>(
      static_cast<double>(loop.budget) * kWarmupShare);
  loop.epoch = Clock::now();
  Attendant att(*st.cluster, st.plane, true);

  std::vector<std::shared_ptr<Flow>> flows;
  loop.inflight.store(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const auto site = static_cast<SiteId>(i % kSites);
    flows.push_back(std::make_shared<Flow>(
        st, loop, site, mix64(seed * 1000 + static_cast<std::uint64_t>(i))));
    st.cluster->post(site, [f = flows.back()] { f->next(); });
  }
  // Done when every flow has retired; hung when the attempt counter stops
  // moving for 5 s with flows still in flight.
  std::uint64_t seen = 0;
  auto last_move = Clock::now();
  while (loop.inflight.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now = loop.launched.load();
    if (now != seen) {
      seen = now;
      last_move = Clock::now();
    } else if (seconds_since(last_move) > 5.0) {
      break;
    }
  }
  const int hung = loop.inflight.load();
  t.hung += hung;
  if (hung > 0) r.fail(std::to_string(hung) + " flows hung");

  att.finish();
  const LiveCounters counters = LiveCounters::read(*st.cluster, st.plane,
                                                   kSites);
  st.stop();
  gate_plane(r, counters);
  t.counters += counters;
  t.mailbox_wait.merge_from(att.mailbox_wait());
  t.probes += att.probes_posted();

  if (hung == 0)
    t.window_s += static_cast<double>(loop.window_end_ns.load() -
                                      loop.window_start_ns.load()) /
                  1e9;
  std::uint64_t committed = 0;
  for (auto& c : st.sites) {
    committed += c.measured.committed();
    t.m.merge_from(c.measured);
    t.latency.merge_from(c.latency);
    t.txns += c.outcomes.size();
    for (const auto& o : c.outcomes) {
      t.commits += o.committed ? 1 : 0;
      st.history.record_txn(o.txn, o.committed, o.response_time);
    }
    for (const auto& e : c.installs) st.history.record_install(e);
    c = SiteCollector{};
  }
  const auto cr = st.history.check_criterion(live::criterion_of(kProtocol));
  if (!cr.ok) r.fail("history checker (" +
                     std::string(live::criterion_of(kProtocol)) +
                     "): " + cr.detail);
  if (committed == 0) r.fail("nothing committed");
  ++t.episodes;
}

/// Episodes with seeds seed, seed+1, ... until `secs` are spent.
Tally run_half(std::uint64_t seed, double secs, bool traced, Result& r) {
  Tally t;
  const auto t0 = Clock::now();
  do {
    run_episode(t, seed + static_cast<std::uint64_t>(t.episodes), traced, r);
  } while (seconds_since(t0) < secs && r.correct);
  return t;
}

}  // namespace

Result run_engine_closed(const Options& opt) {
  Result r;
  r.config = {
      {"protocol", kProtocol},
      {"sites", std::to_string(kSites)},
      {"flows", std::to_string(kFlows)},
      {"workload", "C(0.2) zipfian 0.99, interactive"},
      {"objects", std::to_string(kSites * kObjectsPerSite)},
      {"replication", "1"},
      {"loop", "closed, relaunched from completion on the site thread"},
      {"episode_attempts", std::to_string(kEpisodeAttempts)},
      {"warmup_share", std::to_string(kWarmupShare)},
  };
  // Untraced half, then the traced half on the same seeds; both run the
  // mailbox probe, so the gap between them is the TraceRecorder's alone.
  const Tally base = run_half(opt.seed, opt.seconds / 2, false, r);
  const Tally t = run_half(opt.seed, opt.seconds / 2, true, r);
  r.attempted = base.m.committed() + base.m.aborted() + t.m.committed() +
                t.m.aborted() + std::uint64_t(base.hung + t.hung);
  r.failed = static_cast<std::uint64_t>(base.hung + t.hung);
  const double terminated = static_cast<double>(t.m.committed() + t.m.aborted());
  const auto pct = [terminated](std::uint64_t n) {
    return terminated == 0 ? 0.0 : 100.0 * static_cast<double>(n) / terminated;
  };
  r.set_layer("txn_p99_ms", base.latency.percentile_ms(0.99, 0));
  r.set_layer("workload.failed_pct",
              100.0 * static_cast<double>(t.hung) / std::max(1.0, terminated));
  r.set_layer("abort_pct", t.m.abort_ratio_pct());
  r.set_layer("core.abort_conflict_pct",
              pct(t.m.aborts_with(obs::AbortReason::kCertConflict)));
  r.set_layer("core.abort_snapshot_pct",
              pct(t.m.aborts_with(obs::AbortReason::kSnapshotFailure)));
  set_live_layers(r, t.counters, t.mailbox_wait, t.probes, t.txns, t.commits);
  set_phase_layers(r, t.budget);
  r.set_layer("obs.trace_overhead_pct",
              base.tps() == 0 ? 0.0
                              : 100.0 * (base.tps() - t.tps()) / base.tps());
  r.reference["untraced_committed_tps"] = base.tps();
  r.reference["traced_committed_tps"] = t.tps();
  r.reference["untraced_txn_p50_ms"] = base.latency.percentile_ms(0.5, 0);
  r.reference["phase_budget_txns"] = static_cast<double>(t.budget.txns);
  r.reference["episodes"] = base.episodes + t.episodes;
  return r;
}

}  // namespace perfbench

// front-open: the operator's path, open loop through the front door.
//
// One process hosts a 3-site LiveCluster (P-Store, SER) with one
// FrontServer per site, wired as gdur_site wires them, with the ObsPlane
// attached. One generator thread offers one-shot stored transactions
// (Workload A, 80% read-only, uniform over 3 x 4096 objects, rf=1) at a
// pinned Poisson rate over three GdurClient sessions, one per site.
// Latency is timed from each request's intended send time; a refused
// try_submit is shed (failed), never queued or retried.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checker/history.h"
#include "front/client.h"
#include "front/server.h"
#include "live/live_cluster.h"
#include "live/live_runner.h"
#include "live_support.h"
#include "open_loop.h"
#include "protocols/protocols.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using namespace gdur;

constexpr int kSites = 3;
/// Pinned offered rate, about half this workload's capacity on a shared
/// 4-core VM: 16k/s offered committed 15.8k/s with some shedding and p99
/// 5-12 ms; 12k/s collapsed once (p99 2 s) during host contention.
constexpr double kRateTps = 6000.0;
constexpr std::uint64_t kObjectsPerSite = 4096;
constexpr int kPartitionsPerSite = 2;
constexpr double kReadOnly = 0.8;
const char* const kProtocol = "P-Store";
/// Unmeasured lead-in before the window, as a share of the pass.
constexpr double kWarmupShare = 0.1;
/// Per-session in-flight window (gdur_site's default is 64). A shared VM
/// can freeze a vCPU for tens of ms; at 2,000/s per session a 64 window
/// sheds on a 32 ms freeze, 256 rides out 128 ms and lets the latency from
/// the intended send time show the stall instead.
constexpr std::uint32_t kWindow = 256;

/// Per-site server-side record; touched only on that site's thread.
struct SiteSink {
  std::vector<checker::TxnOutcome> outcomes;
  std::vector<core::Cluster::InstallEvent> installs;
  harness::LatencyStat server_resp;
};

/// One client session. The tallies are written only by the session's
/// reader thread (and by close() once that thread has joined).
struct Session {
  Session(front::ClientConfig cc, const store::Partitioner& part, SiteId site,
          std::uint64_t seed)
      : client(std::move(cc)),
        gen(workload::WorkloadSpec::A(kReadOnly), part, site, seed) {}

  front::GdurClient client;
  workload::Generator gen;  // generator thread only
  /// Measured window: committed latency from the intended send time.
  LatencySamples latency;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  harness::LatencyStat rtt;  // every response, from the actual send time
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
};

/// One set-up of the system under test: cluster, front doors, sessions.
/// Members are declared so that destruction runs sessions → servers →
/// cluster → the sinks and recorders they write into.
class FrontStack {
 public:
  FrontStack(std::uint64_t seed, bool traced)
      : plane(obs::ObsPlaneConfig{.sites = kSites}), sinks(kSites) {
    if (traced) trace = std::make_unique<obs::TraceRecorder>(
        obs::TraceConfig{.spans = false});
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
      sinks[e.site].installs.push_back(e);
    });
    cluster->start();
    for (SiteId s = 0; s < static_cast<SiteId>(kSites); ++s) {
      front::FrontConfig fc;
      fc.site = s;
      fc.window = kWindow;
      auto srv = std::make_unique<front::FrontServer>(*cluster, fc);
      srv->set_stats(&plane.slot(s));
      srv->set_observer([this, s](const core::TxnRecord& t, bool committed,
                                  SimTime response) {
        SiteSink& k = sinks[s];
        k.outcomes.push_back({t, committed, cluster->now()});
        k.server_resp.add(response);
      });
      srv->start();
      servers.push_back(std::move(srv));
    }
    for (SiteId s = 0; s < static_cast<SiteId>(kSites); ++s) {
      front::ClientConfig cc;
      cc.port = servers[s]->port();
      sessions.push_back(std::make_unique<Session>(
          cc, cluster->partitioner(), s, mix64(seed * 1000 + s)));
      if (!sessions.back()->client.connect())
        error = "session to site " + std::to_string(s) + " did not connect";
    }
  }

  ~FrontStack() { stop(); }
  FrontStack(const FrontStack&) = delete;
  FrontStack& operator=(const FrontStack&) = delete;

  /// Closes the sessions and stops the servers and the cluster; the
  /// engine's memory is released, the sinks and tallies are kept.
  void stop() {
    for (auto& s : sessions) s->client.close();
    for (auto& srv : servers) srv->stop();
    // Server session state lives on the site threads: destroy the servers
    // only once those threads have joined.
    if (cluster) cluster->stop();
    servers.clear();
    cluster.reset();
  }

  obs::ObsPlane plane;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::vector<SiteSink> sinks;
  checker::History history;
  std::unique_ptr<live::LiveCluster> cluster;
  std::vector<std::unique_ptr<front::FrontServer>> servers;
  std::vector<std::unique_ptr<Session>> sessions;
  std::string error;
};

struct Pass {
  OpenLoopStats gen;  // measured window
  double window_s = 0;
  LatencySamples latency;  // merged over sessions, failures included
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t lost = 0;         // sent, never answered by the deadline
  std::uint64_t server_txns = 0;  // terminated at the servers, whole pass
  std::uint64_t server_commits = 0;
  harness::LatencyStat rtt;
  harness::LatencyStat server_resp;
  std::uint64_t front_frames = 0;
  std::uint64_t front_wakeups = 0;
  LiveCounters counters;
  harness::LatencyStat mailbox_wait;
  std::uint64_t probes = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return gen.shed + lost + (gen.scheduled - gen.issued);
  }
  [[nodiscard]] double pct(double q) const {
    return latency.percentile_ms(q, window_s * 1e3);
  }
};

/// One pass over a fresh stack: lead-in, measured window, drain, checks.
/// `probe` runs the attendant's mailbox-wait probe alongside.
Pass run_pass(FrontStack& st, std::uint64_t seed, double secs, bool probe,
              Result& r) {
  Pass p;
  // Growing a sink vector mid-run would copy it on a site thread (or a
  // session's reader thread) and stall it: size them for the whole pass up
  // front, before any traffic.
  const auto expect = static_cast<std::size_t>(kRateTps * secs / kSites * 1.5);
  for (auto& k : st.sinks) {
    k.outcomes.reserve(expect);
    k.installs.reserve(expect);
  }
  for (auto& s : st.sessions) s->latency.ns.reserve(expect);
  Attendant att(*st.cluster, st.plane, probe);
  const Clock::time_point epoch = Clock::now();
  const double warm_s = secs * kWarmupShare;
  p.window_s = secs - warm_s;
  bool measuring = false;  // lead-in arrivals are not measured
  auto submit = [&](std::int64_t due, std::uint64_t k) {
    Session& s = *st.sessions[k % st.sessions.size()];
    auto prof = s.gen.next();
    const std::int64_t sent = ns_since(epoch);
    const bool measured = measuring;
    Session* sp = &s;
    const bool ok = s.client.try_submit(
        net::codec::ClientOp::kStored, 0, 0, std::move(prof.reads),
        std::move(prof.writes),
        [sp, measured, due, sent, epoch](const front::GdurClient::Resp& resp) {
          const std::int64_t now = ns_since(epoch);
          if (measured) {
            if (resp.ok) {
              ++sp->committed;
              sp->latency.ns.push_back(now - due);
            } else {
              ++sp->aborted;
            }
          }
          sp->rtt.add(now - sent);
          sp->answered.fetch_add(1, std::memory_order_release);
        });
    if (ok) {
      s.sent.fetch_add(1, std::memory_order_relaxed);
    } else if (measured) {
      ++p.latency.failed;  // shed: an infinite latency
    }
    return ok;
  };
  run_open_loop(kRateTps, seed ^ 0x5741524d, warm_s, epoch, submit);
  measuring = true;
  p.gen = run_open_loop(kRateTps, seed, p.window_s, epoch, submit);

  // Drain: every accepted request must be answered, and every server must
  // release every request context.
  auto outstanding = [&st] {
    std::uint64_t n = 0;
    for (auto& s : st.sessions)
      n += s->sent.load(std::memory_order_relaxed) -
           s->answered.load(std::memory_order_acquire);
    return n;
  };
  wait_until([&] { return outstanding() == 0; }, 5.0);
  p.lost = outstanding();
  auto server_inflight = [&st] {
    std::uint64_t n = 0;
    for (auto& srv : st.servers) n += srv->requests_inflight();
    return n;
  };
  wait_until([&] { return server_inflight() == 0; }, 2.0);
  if (p.lost > 0)
    r.fail(std::to_string(p.lost) + " requests never answered");
  if (server_inflight() > 0)
    r.fail("FrontServer::requests_inflight() did not drain");

  att.finish();
  p.counters = LiveCounters::read(*st.cluster, st.plane, kSites);
  for (auto& srv : st.servers) {
    p.front_frames += srv->reactor().frames_received();
    p.front_wakeups += srv->reactor().wakeups();
  }
  st.stop();
  p.mailbox_wait = att.mailbox_wait();
  p.probes = att.probes_posted();
  gate_plane(r, p.counters);

  // Unanswered and never-offered requests: infinite latencies too.
  p.latency.failed += p.lost + (p.gen.scheduled - p.gen.issued);
  for (auto& s : st.sessions) {
    p.latency.merge_from(s->latency);
    p.committed += s->committed;
    p.aborted += s->aborted;
    p.rtt.merge_from(s->rtt);
  }
  for (auto& k : st.sinks) {
    p.server_txns += k.outcomes.size();
    p.server_resp.merge_from(k.server_resp);
    for (const auto& o : k.outcomes) {
      p.server_commits += o.committed ? 1 : 0;
      st.history.record_txn(o.txn, o.committed, o.response_time);
    }
    for (const auto& e : k.installs) st.history.record_install(e);
    k = SiteSink{};
  }
  const auto cr = st.history.check_criterion(live::criterion_of(kProtocol));
  if (!cr.ok) r.fail("history checker (" +
                     std::string(live::criterion_of(kProtocol)) +
                     "): " + cr.detail);
  if (p.gen.offered_ratio() < 0.95)
    r.fail("generator offered " + std::to_string(p.gen.offered_ratio()) +
           " of its schedule (< 0.95)");
  if (p.committed == 0) r.fail("nothing committed");
  return p;
}

}  // namespace

Result run_front_open(const Options& opt) {
  Result r;
  r.config = {
      {"protocol", kProtocol},
      {"sites", std::to_string(kSites)},
      {"front_servers", std::to_string(kSites)},
      {"client_sessions", std::to_string(kSites)},
      {"generator_threads", "1"},
      {"workload", "A(0.8) uniform, stored one-shot"},
      {"objects", std::to_string(kSites * kObjectsPerSite)},
      {"replication", "1"},
      {"arrivals", "Poisson, absolute-deadline schedule"},
      {"offered_tps", std::to_string(kRateTps)},
      {"session_window", std::to_string(kWindow)},
      {"warmup_share", std::to_string(kWarmupShare)},
  };
  if (!opt.trace) {
    // Set-up is timed several times, about half before the measured pass
    // and half after it, so its median does not rest on one moment of a
    // shared host; the last set-up before the pass serves the run.
    std::vector<double> setup;
    auto time_setup = [&] {
      const auto t0 = Clock::now();
      auto s = std::make_unique<FrontStack>(opt.seed, false);
      setup.push_back(seconds_since(t0));
      if (!s->error.empty()) r.fail(s->error);
      return s;
    };
    std::unique_ptr<FrontStack> st;
    const int before = setup_reps(opt) / 2 + 1;
    for (int i = 0; i < before; ++i) {
      st.reset();
      st = time_setup();
    }
    if (!r.correct) return r;
    const Pass p = run_pass(*st, opt.seed, opt.seconds, false, r);
    st.reset();
    for (int i = before; i < setup_reps(opt); ++i) time_setup().reset();
    r.attempted = p.gen.scheduled;
    r.failed = p.failed();
    r.set_e2e("txn_p50_ms", p.pct(0.50));
    r.reference["txn_p99_ms"] = p.pct(0.99);
    r.set_e2e("committed_tps", static_cast<double>(p.committed) / p.window_s);
    r.set_e2e("setup_s", median(setup));
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    r.reference["abort_pct"] =
        100.0 * static_cast<double>(p.aborted) /
        static_cast<double>(std::max<std::uint64_t>(1, p.committed + p.aborted));
    r.reference["offered_ratio"] = p.gen.offered_ratio();
    r.reference["lag_p99_ms"] = p.gen.lag.percentile_ms(0.99);
    return r;
  }

  // Per-layer run: untraced half, then the traced half on a fresh stack,
  // both on the same seed and both with the mailbox probe, so the gap
  // between them is the TraceRecorder's alone.
  Pass base;
  {
    FrontStack st(opt.seed, false);
    if (!st.error.empty()) {
      r.fail(st.error);
      return r;
    }
    base = run_pass(st, opt.seed, opt.seconds / 2, true, r);
  }
  FrontStack st(opt.seed, true);
  if (!st.error.empty()) {
    r.fail(st.error);
    return r;
  }
  const Pass p = run_pass(st, opt.seed, opt.seconds / 2, true, r);
  r.attempted = base.gen.scheduled + p.gen.scheduled;
  r.failed = base.failed() + p.failed();
  const auto per = [](double n, double d) { return d == 0 ? 0.0 : n / d; };
  const double txns = static_cast<double>(p.server_txns);
  r.set_layer("txn_p99_ms", base.pct(0.99));
  r.set_layer("workload.offered_ratio", p.gen.offered_ratio());
  r.set_layer("workload.lag_p99_ms", p.gen.lag.percentile_ms(0.99));
  r.set_layer("workload.failed_pct",
              100.0 * per(static_cast<double>(p.failed()),
                          static_cast<double>(p.gen.scheduled)));
  r.set_layer("abort_pct",
              100.0 * per(static_cast<double>(p.aborted),
                          static_cast<double>(p.committed + p.aborted)));
  r.set_layer("front.client_rtt_mean_ms", p.rtt.mean_ms());
  r.set_layer("front.server_resp_mean_ms", p.server_resp.mean_ms());
  r.set_layer("front.door_mean_ms",
              p.rtt.mean_ms() - p.server_resp.mean_ms());
  r.set_layer("front.frames_per_txn",
              per(static_cast<double>(p.front_frames), txns));
  r.set_layer("front.wakeups_per_txn",
              per(static_cast<double>(p.front_wakeups), txns));
  set_live_layers(r, p.counters, p.mailbox_wait, p.probes, p.server_txns,
                  p.server_commits);
  const double b50 = base.pct(0.5);
  r.set_layer("obs.trace_overhead_pct",
              b50 == 0 ? 0.0 : 100.0 * (p.pct(0.5) - b50) / b50);
  r.reference["untraced_txn_p50_ms"] = b50;
  r.reference["traced_txn_p50_ms"] = p.pct(0.5);
  return r;
}

}  // namespace perfbench

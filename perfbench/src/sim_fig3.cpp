// sim-fig3: the simulator at Fig. 3a's top load point.
//
// 4 sites, rf=1, 1e5 objects per site, Workload A (70% read-only), 2048
// closed-loop clients, 0.7 s warmup + 2.5 s simulated window — the load the
// figure benches actually run. The seven protocols run in turn, each built
// from the same public calls harness::run_experiment makes (core::Cluster,
// workload::ClientActor, Simulator::run_until), with a checker::History
// attached. Whole passes over the seven repeat until --seconds of wall time
// are spent (at least one); every pass must reproduce the first pass's
// simulated commit counts exactly, and so must any earlier run of the same
// source tree and seed recorded in the state directory.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "checker/history.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "live/live_runner.h"
#include "obs/plane.h"
#include "protocols/protocols.h"
#include "workload/client.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using namespace gdur;

const char* const kProtocols[] = {"RC",    "Jessy2pc", "Walter", "GMU",
                                  "S-DUR", "Serrano",  "P-Store"};

struct Shape {
  int sites = 4;
  std::uint64_t objects_per_site = 100'000;
  int clients = 2048;
  double warmup_s = 0.7;
  double window_s = 2.5;
  double read_only = 0.7;
};

Shape shape_for(const Options& opt) {
  Shape s;
  if (opt.smoke) {
    s.objects_per_site = 10'000;
    s.clients = 256;
    s.warmup_s = 0.2;
    s.window_s = 0.5;
  }
  return s;
}

/// The measured window runs in this many equal simulated steps.
constexpr int kSteps = 25;

struct ProtoRun {
  double setup_s = 0;   // median cluster construction
  double wall_s = 0;         // every run_until call, warmup included
  double window_wall_s = 0;  // the measured window's run_until calls
  std::uint64_t commits_all = 0;  // warmup + window
  harness::Metrics window;
  std::uint64_t events = 0;   // window
  std::uint64_t msgs = 0;     // window
  std::uint64_t ordering = 0; // window, traced only
  std::vector<std::uint64_t> queue_depth;
};

/// One protocol's simulation at the load point, assembled from the public
/// calls harness::run_experiment makes, with a History and an ObsPlane
/// attached. `budget` non-null = traced: a TraceRecorder (spans off) feeds
/// the measured window's phase reports into it. Declaration order makes
/// the clients go before the cluster, and the cluster before the recorders
/// it writes into.
class ProtoSim {
 public:
  ProtoSim(const char* name, const Shape& sh, std::uint64_t seed,
           PhaseBudget* budget, int setup_reps)
      : name_(name),
        sh_(sh),
        budget_(budget),
        plane_(obs::ObsPlaneConfig{.sites = sh.sites, .single_writer = true}) {
    if (budget != nullptr)
      trace_ = std::make_unique<obs::TraceRecorder>(
          obs::TraceConfig{.spans = false});
    core::ClusterConfig cc;
    cc.sites = sh.sites;
    cc.replication = 1;
    cc.objects_per_site = sh.objects_per_site;
    cc.seed = seed;
    cc.plane = &plane_;
    cc.trace = trace_.get();
    const auto spec = protocols::by_name(name);
    std::vector<double> setup;
    for (int i = 0; i < setup_reps; ++i) {
      cl_.reset();
      const auto t0 = Clock::now();
      cl_ = std::make_unique<core::Cluster>(cc, spec);
      setup.push_back(seconds_since(t0));
    }
    pr_.setup_s = median(setup);

    history_.attach(*cl_);
    const workload::WorkloadSpec wl = workload::WorkloadSpec::A(sh.read_only);
    clients_.reserve(static_cast<std::size_t>(sh.clients));
    for (int i = 0; i < sh.clients; ++i) {
      const auto site = static_cast<SiteId>(i % sh.sites);
      clients_.push_back(std::make_unique<workload::ClientActor>(
          *cl_, site, wl, metrics_,
          mix64(seed * 1'000'003 + static_cast<std::uint64_t>(i))));
      clients_.back()->set_observer(
          [this](const core::TxnRecord& t, bool committed) {
            history_.record_txn(t, committed, cl_->now());
            if (committed) ++pr_.commits_all;
          });
      // Staggered like run_experiment, so clients do not fire in lockstep.
      clients_.back()->start(static_cast<SimTime>(i) * microseconds(97) %
                             milliseconds(25));
    }
  }

  /// Runs the warmup, then opens the measured window.
  void warm_up() {
    const auto t0 = Clock::now();
    cl_->simulator().run_until(warmup());
    pr_.wall_s += seconds_since(t0);
    metrics_.reset();
    cl_->transport().reset_accounting();
    if (trace_) {
      trace_->reset_counters();
      trace_->set_phase_sink(
          [b = budget_](const obs::TxnPhaseReport& rep) { b->add(rep); });
    }
    ev0_ = cl_->simulator().events_processed();
  }

  /// Runs window step i (1-based, up to kSteps).
  void step(int i) {
    const SimTime end = warmup() + seconds(sh_.window_s);
    const auto t0 = Clock::now();
    cl_->simulator().run_until(
        i == kSteps ? end : warmup() + (end - warmup()) / kSteps * i);
    const double s = seconds_since(t0);
    pr_.window_wall_s += s;
    pr_.wall_s += s;
  }

  /// Collects the window's figures and checks the history.
  ProtoRun finish(Result& r) {
    pr_.window = metrics_;
    pr_.events = cl_->simulator().events_processed() - ev0_;
    pr_.msgs = cl_->transport().messages_sent();
    if (trace_) pr_.ordering = trace_->msg_count(obs::MsgClass::kOrdering);
    pr_.queue_depth.assign(obs::kHistBuckets, 0);
    for (SiteId s = 0; s < static_cast<SiteId>(sh_.sites); ++s)
      for (std::size_t b = 0; b < obs::kHistBuckets; ++b)
        pr_.queue_depth[b] += plane_.slot(s).bucket(obs::Hist::kQueueDepth, b);
    const char* crit = live::criterion_of(name_);
    const auto res = history_.check_criterion(crit);
    if (!res.ok)
      r.fail(name_ + ": history checker (" + crit + "): " + res.detail);
    if (const auto v = plane_.invariants().violations(); v > 0)
      r.fail(name_ + ": invariant monitor: " + std::to_string(v) +
             " violations");
    if (pr_.window.committed() == 0) r.fail(name_ + ": nothing committed");
    return pr_;
  }

 private:
  [[nodiscard]] SimTime warmup() const { return seconds(sh_.warmup_s); }

  std::string name_;
  Shape sh_;
  PhaseBudget* budget_;
  obs::ObsPlane plane_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  checker::History history_;
  harness::Metrics metrics_;
  ProtoRun pr_;
  std::uint64_t ev0_ = 0;
  std::unique_ptr<core::Cluster> cl_;
  std::vector<std::unique_ptr<workload::ClientActor>> clients_;
};

/// One pass over the seven protocols.
struct PassOut {
  std::map<std::string, ProtoRun> runs;
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t commits = 0;
};

/// The seven simulations are built together and their window steps run
/// round-robin, so host contention that comes and goes during the pass
/// lands on every protocol alike rather than on whichever ran at the time.
PassOut run_pass(const Shape& sh, std::uint64_t seed, PhaseBudget* budget,
                 int setup_reps, Result& r) {
  std::vector<std::unique_ptr<ProtoSim>> sims;
  for (const char* name : kProtocols)
    sims.push_back(
        std::make_unique<ProtoSim>(name, sh, seed, budget, setup_reps));
  for (auto& s : sims) s->warm_up();
  for (int i = 1; i <= kSteps; ++i)
    for (auto& s : sims) s->step(i);
  PassOut p;
  for (std::size_t k = 0; k < sims.size(); ++k) {
    ProtoRun pr = sims[k]->finish(r);
    sims[k].reset();
    std::printf("# sim-fig3 %-9s wall %.3f s  window %.3f s  setup %.6f s  "
                "commits %llu\n",
                kProtocols[k], pr.wall_s, pr.window_wall_s, pr.setup_s,
                static_cast<unsigned long long>(pr.commits_all));
    std::fflush(stdout);
    p.setup_s += pr.setup_s;
    p.wall_s += pr.wall_s;
    p.commits += pr.commits_all;
    p.runs.emplace(kProtocols[k], std::move(pr));
  }
  return p;
}

/// Fails `r` when `p` disagrees with `ref` on any protocol's commit count.
void same_counts(const PassOut& ref, const PassOut& p, const char* what,
                 Result& r) {
  for (const auto& [name, pr] : p.runs) {
    const auto want = ref.runs.at(name).commits_all;
    if (pr.commits_all != want)
      r.fail(std::string("determinism (") + what + "): " + name + " " +
             std::to_string(pr.commits_all) + " commits vs " +
             std::to_string(want));
  }
}

/// Cross-run determinism record: per protocol commit counts of a seed,
/// kept under the state directory by the first run that sees the seed.
/// The directory belongs to one source tree (see Options::state_dir), so a
/// change that moves the counts legitimately starts a fresh record.
void check_record(const Options& opt, const Shape& sh, const PassOut& p,
                  Result& r) {
  if (opt.state_dir.empty()) return;
  std::ostringstream key;
  key << opt.state_dir << "/sim-fig3-" << opt.seed << "-" << sh.clients << "-"
      << sh.objects_per_site << ".counts";
  std::map<std::string, std::uint64_t> recorded;
  {
    std::ifstream in(key.str());
    std::string name;
    std::uint64_t n = 0;
    while (in >> name >> n) recorded[name] = n;
  }
  if (recorded.empty()) {
    std::ofstream out(key.str());
    for (const auto& [name, pr] : p.runs)
      out << name << " " << pr.commits_all << "\n";
    return;
  }
  for (const auto& [name, pr] : p.runs) {
    const auto it = recorded.find(name);
    if (it != recorded.end() && it->second != pr.commits_all)
      r.fail("determinism (earlier run, same seed): " + name + " " +
             std::to_string(pr.commits_all) + " commits vs " +
             std::to_string(it->second));
  }
}

}  // namespace

Result run_sim_fig3(const Options& opt) {
  Result r;
  const Shape sh = shape_for(opt);
  r.config = {
      {"protocols", "RC Jessy2pc Walter GMU S-DUR Serrano P-Store"},
      {"sites", std::to_string(sh.sites)},
      {"replication", "1"},
      {"objects_per_site", std::to_string(sh.objects_per_site)},
      {"workload", "A(" + std::to_string(sh.read_only) + ") uniform"},
      {"clients", std::to_string(sh.clients)},
      {"warmup_sim_s", std::to_string(sh.warmup_s)},
      {"window_sim_s", std::to_string(sh.window_s)},
  };

  if (!opt.trace) {
    std::vector<PassOut> passes;
    const auto t0 = Clock::now();
    do {
      passes.push_back(run_pass(sh, opt.seed, nullptr, setup_reps(opt), r));
      if (passes.size() > 1) same_counts(passes[0], passes.back(), "pass", r);
    } while (seconds_since(t0) < opt.seconds);
    check_record(opt, sh, passes[0], r);

    // Per protocol, the median over passes of its window wall time.
    std::vector<double> proto_wall_ms, setups;
    double wall = 0;
    std::uint64_t commits = 0, aborted = 0;
    for (const char* name : kProtocols) {
      std::vector<double> w;
      for (const auto& p : passes) w.push_back(p.runs.at(name).window_wall_s);
      proto_wall_ms.push_back(median(w) * 1e3);
      wall += median(w);
      commits += passes[0].runs.at(name).window.committed();
    }
    for (const auto& p : passes) {
      setups.push_back(p.setup_s);
      for (const auto& [name, pr] : p.runs) {
        aborted += pr.window.aborted();
        r.attempted += pr.window.committed() + pr.window.aborted();
      }
    }
    // The request a figure-bench user waits on is one protocol run at the
    // load point: the latency metrics are the median and the slowest of
    // the seven protocols' measured windows.
    r.set_e2e("txn_p50_ms", median(proto_wall_ms));
    r.reference["txn_p99_ms"] =
        *std::max_element(proto_wall_ms.begin(), proto_wall_ms.end());
    r.set_e2e("committed_tps", static_cast<double>(commits) / wall);
    r.set_e2e("setup_s", median(setups));
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    r.reference["passes"] = static_cast<double>(passes.size());
    r.reference["sim_abort_pct"] =
        100.0 * static_cast<double>(aborted) /
        static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
    for (const auto& [name, pr] : passes[0].runs) {
      r.reference["sim_tps." + name] =
          static_cast<double>(pr.window.committed()) / sh.window_s;
      r.reference["sim_txn_p50_ms." + name] =
          pr.window.txn_latency.percentile_ms(0.5);
      r.reference["sim_txn_p99_ms." + name] =
          pr.window.txn_latency.percentile_ms(0.99);
    }
    return r;
  }

  const PassOut base = run_pass(sh, opt.seed, nullptr, 1, r);
  PhaseBudget budget;  // simulated time, pooled over the seven protocols
  const PassOut p = run_pass(sh, opt.seed, &budget, 1, r);
  same_counts(base, p, "traced vs untraced", r);
  check_record(opt, sh, base, r);
  std::uint64_t window_commits = 0, aborted = 0, events = 0, msgs = 0,
                ordering = 0;
  std::vector<std::uint64_t> depth(obs::kHistBuckets, 0);
  for (const auto& [name, pr] : p.runs) {
    r.set_layer("sim.wall_s." + name, pr.wall_s);
    window_commits += pr.window.committed();
    aborted += pr.window.aborted();
    events += pr.events;
    msgs += pr.msgs;
    ordering += pr.ordering;
    for (std::size_t b = 0; b < depth.size(); ++b) depth[b] += pr.queue_depth[b];
  }
  double slowest_s = 0;
  for (const auto& [name, pr] : base.runs) {
    r.attempted += pr.window.committed() + pr.window.aborted();
    slowest_s = std::max(slowest_s, pr.window_wall_s);
  }
  r.set_layer("txn_p99_ms", slowest_s * 1e3);
  r.attempted += window_commits + aborted;
  const auto per = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  r.set_layer("abort_pct", 100.0 * per(aborted, window_commits + aborted));
  r.set_layer("sim_commits_per_wall_s",
              static_cast<double>(base.commits) / base.wall_s);
  r.set_layer("sim.events_per_commit", per(events, window_commits));
  r.set_layer("net.msgs_per_commit", per(msgs, window_commits));
  r.set_layer("comm.ordering_msgs_per_commit", per(ordering, window_commits));
  r.set_layer("core.queue_depth_p99", log2_bucket_p99(depth));
  set_phase_layers(r, budget);
  r.set_layer("obs.trace_overhead_pct",
              100.0 * (p.wall_s - base.wall_s) / base.wall_s);
  return r;
}

}  // namespace perfbench

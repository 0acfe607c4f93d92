// Sim/live equivalence: the same workload spec driven through the
// discrete-event simulator and through the live socket runtime must both
// be checker-clean for every protocol's claimed criterion, and both must
// make real progress. The two executions cannot be bit-compared — the live
// run's interleavings come from the OS scheduler — so the equivalence
// claim is at the contract level: identical protocol code, identical
// workload distribution, identical safety verdict.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "checker/history.h"
#include "live/live_runner.h"
#include "obs/plane.h"
#include "obs/trace.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

struct SimOutcome {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  bool checker_ok = false;
  std::string detail;
};

SimOutcome run_sim(const std::string& protocol, const std::string& criterion,
                   const workload::WorkloadSpec& wl, int sites, int clients,
                   std::uint64_t seed, SimDuration span = seconds(2),
                   obs::TraceRecorder* trace = nullptr,
                   obs::ObsPlane* plane = nullptr) {
  core::ClusterConfig cfg;
  cfg.sites = sites;
  cfg.objects_per_site = 4096;
  cfg.partitions_per_site = 2;
  cfg.seed = seed;
  cfg.trace = trace;
  cfg.plane = plane;
  core::Cluster cluster(cfg, protocols::by_name(protocol));
  checker::History history;
  history.attach(cluster);
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (int i = 0; i < clients; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % sites), wl, metrics,
        seed * 1000 + static_cast<std::uint64_t>(i)));
    actors.back()->set_observer(
        [&history, &cluster](const core::TxnRecord& t, bool committed) {
          history.record_txn(t, committed, cluster.simulator().now());
        });
    actors.back()->start(i * microseconds(373));
  }
  cluster.simulator().run_until(span);
  SimOutcome out;
  out.committed = metrics.committed();
  out.aborted = metrics.aborted();
  const auto r = history.check_criterion(criterion);
  out.checker_ok = r.ok;
  out.detail = r.detail;
  return out;
}

class LiveEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(LiveEquivalence, SameWorkloadCleanUnderSimAndLive) {
  const std::string protocol = GetParam();
  const std::string criterion = live::criterion_of(protocol);
  const auto wl = workload::WorkloadSpec::A(0.8);
  constexpr int kSites = 3, kClients = 12;
  constexpr std::uint64_t kSeed = 7;

  const auto sim = run_sim(protocol, criterion, wl, kSites, kClients, kSeed);
  EXPECT_TRUE(sim.checker_ok) << "sim: " << sim.detail;
  EXPECT_GT(sim.committed, 100u) << "sim made no real progress";

  live::LiveRunConfig lc;
  lc.protocol = protocol;
  lc.sites = kSites;
  lc.clients = kClients;
  lc.secs = 0.5;
  lc.workload = wl;
  lc.seed = kSeed;
  const auto lr = live::run_live(lc);
  EXPECT_TRUE(lr.checker_ok) << "live: " << lr.checker_detail;
  EXPECT_EQ(lr.hung_clients, 0);
  EXPECT_GT(lr.metrics.committed(), 100u) << "live made no real progress";
  EXPECT_GT(lr.messages, 0u) << "live run never used the transport";

  // Sanity bounds, not bit-equality: both executions see the same
  // contention profile, so neither should be abort-dominated when the
  // other is abort-free.
  const double sim_total = double(sim.committed + sim.aborted);
  const double live_total =
      double(lr.metrics.committed() + lr.metrics.aborted());
  const double sim_abort = sim_total > 0 ? sim.aborted / sim_total : 0.0;
  const double live_abort =
      live_total > 0 ? lr.metrics.aborted() / live_total : 0.0;
  EXPECT_LT(sim_abort, 0.9);
  EXPECT_LT(live_abort, 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, LiveEquivalence,
                         ::testing::Values("P-Store", "S-DUR", "GMU",
                                           "Serrano", "Walter", "Jessy2pc",
                                           "RC"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

// Genuineness on sockets (§6.1, the basis of Fig. 5): when every object a
// P-Store transaction touches lives at its coordinator, AM-Cast involves no
// other site, so not one frame crosses a socket.
TEST(LiveGenuineness, LocalPStoreTransactionsSendNoFrames) {
  live::LiveRunConfig lc;
  lc.protocol = "P-Store";
  lc.sites = 3;
  lc.clients = 12;
  lc.secs = 0.5;
  lc.workload = workload::WorkloadSpec::A(0.8);
  lc.workload.locality = 1.0;
  const auto lr = live::run_live(lc);
  EXPECT_TRUE(lr.checker_ok) << lr.checker_detail;
  EXPECT_EQ(lr.hung_clients, 0);
  EXPECT_GT(lr.metrics.committed(), 100u);
  EXPECT_EQ(lr.messages, 0u);
}

/// Ordering-layer messages per submitted transaction, self-sends included.
double ordering_per_txn(const obs::TraceRecorder& trace, obs::ObsPlane& plane,
                        int sites) {
  std::uint64_t submitted = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s)
    submitted += plane.slot(s).value(obs::Counter::kTxnSubmitted);
  return submitted == 0 ? 0.0
                        : static_cast<double>(
                              trace.msg_count(obs::MsgClass::kOrdering)) /
                              static_cast<double>(submitted);
}

// §5.3 message complexity on sockets: live mode runs the simulator's own
// ordering layer, so its ordering messages per transaction match the
// simulation's — Skeen's proposals for P-Store, the sequencer broadcast's
// acknowledgments for Serrano.
class OrderingParity : public ::testing::TestWithParam<const char*> {};

TEST_P(OrderingParity, LiveMessagesPerTxnMatchTheSim) {
  const std::string protocol = GetParam();
  const auto wl = workload::WorkloadSpec::A(0.8);
  constexpr int kSites = 3;

  obs::TraceRecorder sim_trace(obs::TraceConfig{.spans = false});
  obs::ObsPlane sim_plane(obs::ObsPlaneConfig{.sites = kSites});
  const auto sim = run_sim(protocol, live::criterion_of(protocol), wl, kSites,
                           64, 7, seconds(5), &sim_trace, &sim_plane);
  ASSERT_TRUE(sim.checker_ok) << sim.detail;

  obs::TraceRecorder live_trace(obs::TraceConfig{.spans = false});
  obs::ObsPlane live_plane(obs::ObsPlaneConfig{.sites = kSites});
  live::LiveRunConfig lc;
  lc.protocol = protocol;
  lc.sites = kSites;
  lc.clients = 12;
  lc.secs = 0.5;
  lc.workload = wl;
  lc.seed = 7;
  lc.trace = &live_trace;
  lc.plane = &live_plane;
  const auto lr = live::run_live(lc);
  ASSERT_TRUE(lr.checker_ok) << lr.checker_detail;

  const double sim_per = ordering_per_txn(sim_trace, sim_plane, kSites);
  const double live_per = ordering_per_txn(live_trace, live_plane, kSites);
  EXPECT_GT(sim_per, 0.0);
  EXPECT_NEAR(live_per, sim_per, 0.05 * sim_per)
      << "sim " << sim_per << " vs live " << live_per;
}

INSTANTIATE_TEST_SUITE_P(GroupCommunication, OrderingParity,
                         ::testing::Values("P-Store", "Serrano"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

}  // namespace
}  // namespace gdur

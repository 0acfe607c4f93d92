// Reconfiguration under the fault matrix (ISSUE: online elasticity).
//
// The fault-free join/retire paths are covered by test_membership.cpp;
// here the same changes must survive hostile schedules:
//
//   * a 10k-transaction run per protocol that joins one site and retires
//     another mid-run while links drop messages, a partition isolates the
//     retiree during its own retirement (so its votes arrive delayed, in
//     a later epoch), and an uninvolved member crashes and recovers;
//   * a coordinator that crashes right after durably logging (and only
//     partially announcing) a prepare — recovery must resume the change
//     long before the cluster-level retry would re-drive it;
//   * a joiner that crashes in the middle of state transfer — the
//     coordinator's prepare retries must restart the transfer after the
//     joiner recovers, and the join must still complete.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"
#include "core/membership.h"
#include "protocols/protocols.h"
#include "sim/fault.h"
#include "store/wal.h"
#include "workload/client.h"

namespace gdur {
namespace {

const char* const kProtocols[] = {"P-Store", "S-DUR",    "GMU", "Serrano",
                                  "Walter",  "Jessy2pc", "RC"};

struct ChaosRig {
  ChaosRig(const core::ProtocolSpec& spec, core::ClusterConfig cfg,
           int clients, SimDuration window)
      : cluster(cfg, spec) {
    history.attach(cluster);
    for (int i = 0; i < clients; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cfg.sites),
          workload::WorkloadSpec::A(0.7), metrics,
          mix64(91'000 + static_cast<std::uint64_t>(i))));
      actors.back()->set_observer(
          [this](const core::TxnRecord& t, bool committed) {
            history.record_txn(t, committed, cluster.simulator().now());
          });
      actors.back()->start(i * microseconds(373));
    }
    cluster.simulator().run_until(window);
  }

  [[nodiscard]] std::uint64_t txns_run() const {
    std::uint64_t n = 0;
    for (const auto& a : actors) n += a->txns_run();
    return n;
  }
  [[nodiscard]] std::uint64_t resolved() const {
    return metrics.committed() + metrics.aborted() + metrics.txns_timed_out;
  }

  core::Cluster cluster;
  checker::History history;
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
};

core::ClusterConfig chaos_config() {
  core::ClusterConfig cfg;
  cfg.sites = 5;
  cfg.replication = 2;
  cfg.objects_per_site = 64;
  cfg.durable = true;
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  return cfg;
}

// ---------------------------------------------------------------------------
// The headline matrix: every protocol, join + retire mid-run, under loss,
// a partition isolating the retiree, and a member crash.
// ---------------------------------------------------------------------------

class ReconfigChaos : public ::testing::TestWithParam<const char*> {};

TEST_P(ReconfigChaos, JoinAndRetireMidRunSurviveTheFaultMatrix) {
  auto cfg = chaos_config();
  // Epoch 1: site 4 joins (state transfer from live donors). Epoch 2: site 3
  // retires while a partition isolates it, so its certification votes for
  // still-open epoch-<=1 transactions arrive only after the heal, when the
  // cluster has already moved on to epoch 2.
  cfg.reconfig.start_with({0, 1, 2, 3})
      .join(4, milliseconds(400))
      .retire(3, milliseconds(1200));
  cfg.faults.drop_all(0.05);
  cfg.faults.partition({{0, 1, 2, 4}, {3}}, milliseconds(1000),
                       milliseconds(1500));
  cfg.faults.crash(1, milliseconds(900), milliseconds(1400));

  ChaosRig rig(protocols::by_name(GetParam()), cfg, 64, seconds(10));

  EXPECT_GE(rig.txns_run(), 10'000u) << GetParam();
  EXPECT_LE(rig.txns_run() - rig.resolved(), rig.actors.size())
      << GetParam() << ": transactions left hanging";
  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 2u) << GetParam();
  EXPECT_TRUE(rig.cluster.membership().latest().contains(4));
  EXPECT_FALSE(rig.cluster.membership().latest().contains(3));
  // Every final member — and the isolated-then-healed retiree — converged.
  for (SiteId s = 0; s < 5; ++s)
    EXPECT_EQ(rig.cluster.replica(s).epoch(), 2u)
        << GetParam() << ": site " << s;
  EXPECT_GT(rig.metrics.committed(), 1'000u) << GetParam();
  const auto r = rig.history.check_criterion(rig.cluster.spec().criterion);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ReconfigChaos,
                         ::testing::ValuesIn(kProtocols),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// Crash-recovery regressions for the reconfiguration protocol itself.
// ---------------------------------------------------------------------------

// The coordinator durably logs its prepare, announces it to (at most) a few
// participants, and crashes. Nobody else may drive the epoch (the change is
// the coordinator's pending proposal), and the cluster-level re-drive only
// fires at ~kVoteRetry*32 after the action — well past this window. Only the
// coordinator's WAL-replay resume path can complete the retirement in time,
// so this test fails if recovery drops in-flight proposals on the floor.
TEST(ReconfigRecovery, CoordinatorCrashAfterPartialAnnounceResumes) {
  auto cfg = chaos_config();
  cfg.reconfig.retire(3, milliseconds(300));  // coordinator will be site 0
  cfg.faults.crash(0, milliseconds(320), milliseconds(800));

  ChaosRig rig(protocols::by_name("S-DUR"), cfg, 12, seconds(4));

  EXPECT_EQ(rig.cluster.replica(0).recoveries(), 1u);
  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 1u)
      << "recovered coordinator must resume the prepared retirement";
  EXPECT_FALSE(rig.cluster.membership().latest().contains(3));
  for (SiteId s = 0; s < 5; ++s)
    EXPECT_EQ(rig.cluster.replica(s).epoch(), 1u) << "site " << s;
  EXPECT_GT(rig.metrics.committed(), 100u);
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

// Same crash, but the run ends before the coordinator recovers: the
// retirement must *not* have taken effect anywhere — a half-announced
// prepare is not an agreed view.
TEST(ReconfigRecovery, HalfAnnouncedPrepareIsNotAnAgreedView) {
  auto cfg = chaos_config();
  cfg.reconfig.retire(3, milliseconds(300));
  cfg.faults.crash(0, milliseconds(320), seconds(30));  // never recovers here

  ChaosRig rig(protocols::by_name("RC"), cfg, 12, seconds(3));

  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 0u);
  for (SiteId s = 1; s < 5; ++s)
    EXPECT_EQ(rig.cluster.replica(s).epoch(), 0u) << "site " << s;
  const auto r = rig.history.check_criterion("RC");
  EXPECT_TRUE(r.ok) << r.detail;
}

// The joiner crashes mid state-transfer and loses everything it had copied.
// Each prepare retry restarts the transfer from scratch, so once the joiner
// recovers, a later round completes the snapshot + WAL-tail catch-up and the
// join still lands.
TEST(ReconfigRecovery, JoinerCrashMidTransferRetriesAndCompletes) {
  auto cfg = chaos_config();
  cfg.reconfig.start_with({0, 1, 2, 3}).join(4, milliseconds(300));
  cfg.faults.crash(4, milliseconds(320), milliseconds(900));

  ChaosRig rig(protocols::by_name("Walter"), cfg, 12, seconds(4));

  EXPECT_EQ(rig.cluster.replica(4).recoveries(), 1u);
  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 1u)
      << "join must complete after the joiner recovers";
  EXPECT_TRUE(rig.cluster.membership().latest().contains(4));
  EXPECT_EQ(rig.cluster.replica(4).epoch(), 1u);
  EXPECT_GT(rig.cluster.replica(4).db().populated(), 0u)
      << "the restarted transfer must still populate the joiner";
  EXPECT_GT(rig.metrics.committed(), 100u);
  const auto r = rig.history.check_criterion("PSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace gdur

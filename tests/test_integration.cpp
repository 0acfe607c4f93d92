// Cross-feature integration tests: configurations that combine several
// subsystems (fine partitioning, durability, Paxos commitment, replication,
// fault-tolerant multicast) and must still uphold the protocol contracts.
#include <gtest/gtest.h>

#include <memory>

#include "checker/history.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

struct Rig {
  Rig(const core::ProtocolSpec& spec, core::ClusterConfig cfg, int clients,
      workload::WorkloadSpec wl, SimDuration window = seconds(2))
      : cluster(cfg, spec) {
    history.attach(cluster);
    for (int i = 0; i < clients; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cfg.sites), wl, metrics,
          mix64(31'000 + static_cast<std::uint64_t>(i))));
      actors.back()->set_observer(
          [this](const core::TxnRecord& t, bool committed) {
            history.record_txn(t, committed, cluster.simulator().now());
          });
      actors.back()->start(i * microseconds(373));
    }
    cluster.simulator().run_until(window);
  }

  core::Cluster cluster;
  checker::History history;
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
};

core::ClusterConfig contended(int sites = 4, int rf = 1, int pps = 1) {
  core::ClusterConfig cfg;
  cfg.sites = sites;
  cfg.replication = rf;
  cfg.objects_per_site = 64;
  cfg.partitions_per_site = pps;
  return cfg;
}

TEST(Integration, FinePartitionsUpholdNmsi) {
  // 4 partitions per site: PDV vectors grow, snapshots get finer.
  Rig rig(protocols::jessy2pc(), contended(4, 1, /*pps=*/4), 24,
          workload::WorkloadSpec::B(0.6));
  EXPECT_GT(rig.history.committed_count(), 150u);
  const auto r = rig.history.check_criterion("NMSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, FinePartitionsUpholdSerForPStore) {
  Rig rig(protocols::p_store(), contended(4, 1, /*pps=*/4), 24,
          workload::WorkloadSpec::A(0.8));
  EXPECT_GT(rig.history.committed_count(), 150u);
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, FinerPartitionsReduceSnapshotRetries) {
  auto coarse_cfg = contended(4, 1, 1);
  auto fine_cfg = contended(4, 1, 8);
  Rig coarse(protocols::jessy2pc(), coarse_cfg, 24,
             workload::WorkloadSpec::B(0.6));
  Rig fine(protocols::jessy2pc(), fine_cfg, 24,
           workload::WorkloadSpec::B(0.6));
  EXPECT_LE(fine.metrics.exec_failures, coarse.metrics.exec_failures);
}

TEST(Integration, DurableClusterUpholdsPsi) {
  auto cfg = contended();
  cfg.durable = true;
  Rig rig(protocols::walter(), cfg, 24, workload::WorkloadSpec::A(0.8));
  EXPECT_GT(rig.history.committed_count(), 150u);
  const auto r = rig.history.check_criterion("PSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, DurableClusterLogsProportionallyToCommits) {
  auto cfg = contended();
  cfg.durable = true;
  Rig rig(protocols::walter(), cfg, 16, workload::WorkloadSpec::A(0.5));
  std::uint64_t appends = 0;
  for (SiteId s = 0; s < 4; ++s) appends += rig.cluster.wal(s)->appends();
  // Every update transaction logs at least one vote and one apply record.
  EXPECT_GE(appends, rig.metrics.committed_upd);
}

TEST(Integration, PaxosCommitUpholdsSerUnderDt) {
  Rig rig(protocols::p_store_paxos(), contended(4, /*rf=*/2), 24,
          workload::WorkloadSpec::A(0.8));
  EXPECT_GT(rig.history.committed_count(), 150u);
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, FtMulticastUpholdsSerUnderDt) {
  Rig rig(protocols::p_store_ft(), contended(4, /*rf=*/2), 16,
          workload::WorkloadSpec::A(0.8), seconds(3));
  EXPECT_GT(rig.history.committed_count(), 100u);
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, RampNeverAbortsAtCertification) {
  Rig rig(protocols::ramp(), contended(), 24, workload::WorkloadSpec::C(0.5));
  // RAMP has no certification: any aborts are execution-phase retries.
  EXPECT_EQ(rig.metrics.aborted_upd, 0u);
  EXPECT_EQ(rig.metrics.aborted_ro, 0u);
}

TEST(Integration, SixSitesDtComparisonStaysConsistent) {
  for (const char* name : {"Walter", "GMU"}) {
    Rig rig(protocols::by_name(name), contended(6, 2), 24,
            workload::WorkloadSpec::A(0.7));
    EXPECT_GT(rig.history.committed_count(), 150u) << name;
    const auto r = rig.history.check_criterion(
        std::string(name) == "Walter" ? "PSI" : "US");
    EXPECT_TRUE(r.ok) << name << ": " << r.detail;
  }
}

TEST(Integration, OutageUnderLoadRecovers) {
  // A 300 ms outage of one site mid-run: the cluster must keep committing
  // afterwards and the history must stay consistent.
  auto cfg = contended(4, 2);
  Rig rig(protocols::walter(), cfg, 16, workload::WorkloadSpec::A(0.8),
          /*window=*/seconds(0));  // construct only
  rig.cluster.transport().pause_site(2, milliseconds(800));
  rig.cluster.simulator().run_until(seconds(3));
  EXPECT_GT(rig.history.committed_count(), 200u);
  const auto r = rig.history.check_criterion("PSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Integration, MixedCoordinatorsProduceDisjointTxnIds) {
  Rig rig(protocols::rc(), contended(), 16, workload::WorkloadSpec::A(0.5));
  std::set<std::pair<SiteId, std::uint64_t>> ids;
  for (const auto& t : rig.history.summaries())
    EXPECT_TRUE(ids.insert({t.id.coord, t.id.seq}).second);
}

}  // namespace
}  // namespace gdur

// Membership and online reconfiguration (core/membership, DESIGN.md §12):
// view/log semantics, the epoch protocol on a fault-free cluster (join with
// state transfer, retire with drain), epoch tagging of transactions, and
// the service fencing of non-member sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"
#include "core/membership.h"
#include "obs/plane.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

// ---------------------------------------------------------------------------
// MembershipView / MembershipLog semantics.
// ---------------------------------------------------------------------------

TEST(MembershipView, JoinRetireAdvanceEpochAndKeepMembersSorted) {
  core::MembershipView v0;
  v0.members = {0, 1, 3};
  const auto v1 = v0.with_joined(2);
  EXPECT_EQ(v1.epoch, 1u);
  EXPECT_EQ(v1.members, (std::vector<SiteId>{0, 1, 2, 3}));
  const auto v2 = v1.with_retired(0);
  EXPECT_EQ(v2.epoch, 2u);
  EXPECT_EQ(v2.members, (std::vector<SiteId>{1, 2, 3}));
  EXPECT_TRUE(v1.contains(2));
  EXPECT_FALSE(v2.contains(0));
  EXPECT_EQ(v2.majority(), 2);
}

TEST(MembershipView, FilterDropsNonMembersPreservingOrder) {
  core::MembershipView v;
  v.members = {1, 3};
  EXPECT_EQ(v.filter({3, 0, 1, 2}), (std::vector<SiteId>{3, 1}));
}

TEST(MembershipLog, DefaultsToFullUniverseAndClampsLookups) {
  const core::MembershipLog log(4, {});
  EXPECT_EQ(log.latest_epoch(), 0u);
  EXPECT_EQ(log.view(0).members, (std::vector<SiteId>{0, 1, 2, 3}));
  // An epoch from a corrupted or future message clamps to the latest view.
  EXPECT_EQ(log.view(99).members, log.latest().members);
}

TEST(MembershipLog, AppendExtendsByOneAndIsIdempotent) {
  core::MembershipLog log(4, {0, 1, 2});
  const auto v1 = log.latest().with_joined(3);
  log.append(v1);
  EXPECT_EQ(log.latest_epoch(), 1u);
  log.append(v1);  // re-announced commit
  EXPECT_EQ(log.latest_epoch(), 1u);
  EXPECT_TRUE(log.has(1));
  EXPECT_FALSE(log.has(2));
}

// ---------------------------------------------------------------------------
// Fault-free reconfiguration runs: the whole protocol end to end.
// ---------------------------------------------------------------------------

struct ReconfigRig {
  ReconfigRig(const core::ProtocolSpec& spec, core::ClusterConfig cfg,
              int clients, SimDuration window)
      : cluster(cfg, spec) {
    history.attach(cluster);
    for (int i = 0; i < clients; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cfg.sites),
          workload::WorkloadSpec::A(0.7), metrics,
          mix64(55'000 + static_cast<std::uint64_t>(i))));
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

core::ClusterConfig reconfig_config() {
  core::ClusterConfig cfg;
  cfg.sites = 5;
  cfg.replication = 2;
  cfg.objects_per_site = 64;
  cfg.durable = true;
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  return cfg;
}

TEST(Reconfig, JoinTransfersStateAndActivatesEverywhere) {
  auto cfg = reconfig_config();
  cfg.reconfig.start_with({0, 1, 2, 3}).join(4, milliseconds(600));
  ReconfigRig rig(protocols::by_name("S-DUR"), cfg, 12, seconds(3));

  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 1u);
  EXPECT_TRUE(rig.cluster.membership().latest().contains(4));
  for (SiteId s = 0; s < 5; ++s)
    EXPECT_EQ(rig.cluster.replica(s).epoch(), 1u) << "site " << s;
  // The joiner adopted real state: the snapshot populated its store.
  EXPECT_GT(rig.cluster.replica(4).db().populated(), 0u);
  // Snapshot donors marked and compacted their logs.
  std::uint64_t compactions = 0;
  for (SiteId s = 0; s < 5; ++s)
    if (auto* w = rig.cluster.wal(s)) compactions += w->compactions();
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(rig.metrics.committed(), 100u);
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Reconfig, RetireDrainsAndExcludesTheSubject) {
  auto cfg = reconfig_config();
  cfg.reconfig.retire(3, milliseconds(600));  // full universe start
  ReconfigRig rig(protocols::by_name("Walter"), cfg, 12, seconds(3));

  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 1u);
  EXPECT_FALSE(rig.cluster.membership().latest().contains(3));
  // The retiree activated the view that excludes it (it is fenced now).
  EXPECT_EQ(rig.cluster.replica(3).epoch(), 1u);
  EXPECT_FALSE(rig.cluster.replica(3).draining());
  EXPECT_GT(rig.metrics.committed(), 100u);
  const auto r = rig.history.check_criterion("PSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Reconfig, CommittedTransactionsCarryTheirEpoch) {
  auto cfg = reconfig_config();
  cfg.reconfig.start_with({0, 1, 2, 3}).join(4, milliseconds(600));
  ReconfigRig rig(protocols::by_name("RC"), cfg, 12, seconds(3));

  bool saw_epoch0 = false, saw_epoch1 = false;
  for (const auto& out : rig.history.summaries()) {
    if (!out.committed) continue;
    if (out.epoch == 0) saw_epoch0 = true;
    if (out.epoch == 1) saw_epoch1 = true;
    EXPECT_LE(out.epoch, 1u);
  }
  EXPECT_TRUE(saw_epoch0) << "pre-join commits tagged with epoch 0";
  EXPECT_TRUE(saw_epoch1) << "post-join commits tagged with epoch 1";
}

TEST(Reconfig, NonMemberSitesAreFencedFromService) {
  auto cfg = reconfig_config();
  cfg.reconfig.start_with({0, 1, 2, 3});  // site 4 never joins
  core::Cluster cluster(cfg, protocols::by_name("RC"));

  bool read_ok = true, commit_ok = true;
  cluster.begin(4, [&](core::MutTxnPtr t) {
    cluster.read(4, t, 1, [&, t](bool ok) {
      read_ok = ok;
      cluster.write(4, t, 1, [&, t] {
        cluster.commit(4, t, [&](bool ok2) { commit_ok = ok2; });
      });
    });
  });
  cluster.simulator().run_until(seconds(5));
  EXPECT_FALSE(read_ok) << "a non-member must refuse reads";
  EXPECT_FALSE(commit_ok) << "a non-member must refuse commits";
}

TEST(Reconfig, AbortMessageClearsAPreparedRetirement) {
  auto cfg = reconfig_config();
  cfg.reconfig.start_with({0, 1, 2, 3, 4});  // enabled, no scheduled actions
  core::Cluster cluster(cfg, protocols::by_name("RC"));

  auto view = std::make_shared<const core::MembershipView>(
      cluster.membership().latest().with_retired(3));
  core::ReconfigMsg prep;
  prep.kind = core::ReconfigMsg::Kind::kPrepare;
  prep.epoch = 1;
  prep.from = 0;
  prep.view = view;
  prep.change = core::ReconfigKind::kRetire;
  prep.subject = 3;
  cluster.replica(3).on_reconfig(prep);
  EXPECT_TRUE(cluster.replica(3).draining());

  core::ReconfigMsg abort;
  abort.kind = core::ReconfigMsg::Kind::kAbort;
  abort.epoch = 1;
  abort.from = 0;
  cluster.replica(3).on_reconfig(abort);
  EXPECT_FALSE(cluster.replica(3).draining());
  EXPECT_EQ(cluster.replica(3).epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Certification-leader rotation. PR 6 pinned cert_leader to the longest-
// tenured replica of a partition, concentrating all certification authority
// (and load) on one site per partition for the lifetime of the deployment.
// The leader now rotates deterministically by (epoch, partition) over the
// established members — still a pure function of the shared membership log,
// so every site resolves the same leader for a given (partition, epoch).
// ---------------------------------------------------------------------------

TEST(Reconfig, CertLeaderRotatesByEpochAndPartitionAndSkipsFreshJoiners) {
  auto cfg = reconfig_config();
  // Two epoch changes: site 4 joins (epoch 1), then site 0 retires
  // (epoch 2) — the candidate sets shift under the rotation.
  cfg.reconfig.start_with({0, 1, 2, 3})
      .join(4, milliseconds(600))
      .retire(0, milliseconds(1400));
  ReconfigRig rig(protocols::by_name("S-DUR"), cfg, 12, seconds(3));
  auto& cl = rig.cluster;
  ASSERT_EQ(cl.membership().latest_epoch(), 2u);
  const auto& part = cl.partitioner();

  for (EpochId e = 0; e <= 2; ++e) {
    for (PartitionId p = 0; p < part.partitions(); ++p) {
      const SiteId leader = cl.cert_leader(p, e);
      // Pure function of the shared log: stable across repeated resolution.
      EXPECT_EQ(leader, cl.cert_leader(p, e));
      if (leader == kNoSite) continue;
      // The leader replicates the partition and belongs to the view.
      const auto sites = part.sites_of(p);
      EXPECT_NE(std::find(sites.begin(), sites.end(), leader), sites.end())
          << "partition " << p << " epoch " << e;
      EXPECT_TRUE(cl.view(e).contains(leader))
          << "partition " << p << " epoch " << e;
      // Established members only: the site that joined *at* epoch 1 has
      // not witnessed the ordered certifications preceding its join, so it
      // must not lead any partition in that epoch.
      if (e == 1) {
        EXPECT_NE(leader, 4) << "partition " << p;
      }
    }
  }

  // The role genuinely rotates. Across epochs: any partition whose
  // replica set is untouched by the join and the retirement keeps the same
  // candidate list, so consecutive epochs must elect different leaders
  // whenever there are >= 2 candidates.
  bool saw_epoch_rotation = false;
  for (PartitionId p = 0; p < part.partitions(); ++p) {
    const auto sites = part.sites_of(p);
    const bool touched =
        std::find(sites.begin(), sites.end(), 0) != sites.end() ||
        std::find(sites.begin(), sites.end(), 4) != sites.end();
    if (touched || sites.size() < 2) continue;
    const SiteId l0 = cl.cert_leader(p, 0);
    const SiteId l1 = cl.cert_leader(p, 1);
    EXPECT_NE(l0, l1) << "partition " << p
                      << ": stable candidates, consecutive epochs, same "
                         "leader — the rotation is pinned again";
    saw_epoch_rotation = true;
  }
  EXPECT_TRUE(saw_epoch_rotation)
      << "topology left no partition with a stable >=2 candidate set; the "
         "rotation assertion never ran";
  // And across partitions within one epoch the authority is spread, not
  // concentrated on one site.
  std::set<SiteId> leaders_at_latest;
  for (PartitionId p = 0; p < part.partitions(); ++p) {
    const SiteId l = cl.cert_leader(p, 2);
    if (l != kNoSite) leaders_at_latest.insert(l);
  }
  EXPECT_GT(leaders_at_latest.size(), 1u)
      << "one site leads every partition";
}

TEST(Reconfig, VotesStayConsistentAcrossLeaderRotation) {
  // End to end through both epoch changes: with the leader moving under
  // the protocol, every site must still resolve the same authoritative
  // voter per (partition, epoch) — the online invariant monitor's
  // vote-consistency and decision-consistency checks ride the whole run,
  // and the offline checker proves the history afterwards.
  auto cfg = reconfig_config();
  cfg.reconfig.start_with({0, 1, 2, 3})
      .join(4, milliseconds(600))
      .retire(0, milliseconds(1400));
  ReconfigRig rig(protocols::by_name("S-DUR"), cfg, 12, seconds(3));

  ASSERT_EQ(rig.cluster.membership().latest_epoch(), 2u);
  EXPECT_GT(rig.metrics.committed(), 100u);
  EXPECT_EQ(rig.cluster.plane().invariants().violations(), 0u)
      << "invariant monitor tripped across the rotation";
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Reconfig, FixedMembershipRunsAreUntouchedByTheLayer) {
  // Empty plan: reconfig disabled; every site belongs to the one epoch-0
  // view, so the epoch fences always pass.
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.objects_per_site = 64;
  ASSERT_TRUE(cfg.reconfig.empty());
  ReconfigRig rig(protocols::by_name("P-Store"), cfg, 8, seconds(2));
  EXPECT_FALSE(rig.cluster.reconfig_enabled());
  EXPECT_EQ(rig.cluster.membership().latest_epoch(), 0u);
  for (SiteId s = 0; s < 4; ++s)
    EXPECT_EQ(rig.cluster.replica(s).epoch(), 0u);
  EXPECT_GT(rig.metrics.committed(), 100u);
}

}  // namespace
}  // namespace gdur

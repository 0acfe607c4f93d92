// Certification-pipeline tests (core/conflict_index + the replica sites
// that query it):
//   * ConflictIndex unit semantics — positions, removal, scan dedup/order;
//   * the S-DUR pruned-prefix regression — certification must not flip to
//     commit when ObjectChain GC prunes a snapshot-invisible version;
//   * the GDUR_VERIFY_CERT equivalence stress — thousands of transactions
//     across every registered protocol, deep queues under chaos faults,
//     with every indexed commute answer cross-checked against the pairwise
//     queue scan (a mismatch aborts the process).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/history.h"
#include "core/certifiers.h"
#include "core/cluster.h"
#include "core/conflict_index.h"
#include "protocols/protocols.h"
#include "sim/fault.h"
#include "workload/client.h"

namespace gdur {
namespace {

// ---------------------------------------------------------------------------
// ConflictIndex unit semantics.
// ---------------------------------------------------------------------------

core::TxnPtr txn(SiteId coord, std::uint64_t seq,
                 const std::vector<ObjectId>& reads,
                 const std::vector<ObjectId>& writes) {
  auto t = std::make_shared<core::TxnRecord>();
  t->id = TxnId{coord, seq};
  for (ObjectId o : reads) t->rs.insert(o);
  for (ObjectId o : writes) t->ws.insert(o);
  return t;
}

std::vector<TxnId> scan_ids(const core::ConflictIndex& idx,
                            const core::TxnRecord& t) {
  std::vector<TxnId> out;
  idx.scan(t, 0, 1, [&](const core::ConflictIndex::Candidate& c) {
    out.push_back(c.txn.id);
    return false;
  });
  return out;
}

TEST(ConflictIndex, PositionsAreMonotonicInAddOrder) {
  core::ConflictIndex idx;
  const auto p1 = idx.add(txn(0, 1, {1}, {2}));
  const auto p2 = idx.add(txn(0, 2, {3}, {4}));
  EXPECT_LT(p1, p2);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.position(TxnId{0, 1}), std::optional<std::uint64_t>(p1));
  EXPECT_EQ(idx.position(TxnId{9, 9}), std::nullopt);
}

TEST(ConflictIndex, ScanVisitsOnlyFootprintSharers) {
  core::ConflictIndex idx;
  idx.add(txn(0, 1, {1}, {2}));
  idx.add(txn(0, 2, {7}, {8}));
  idx.add(txn(0, 3, {}, {1}));  // shares object 1 with txn 0.1's read set
  const auto probe = txn(1, 1, {2}, {1});
  const auto ids = scan_ids(idx, *probe);
  ASSERT_EQ(ids.size(), 2u);
  // Within a bucket, candidates come back in enqueue order; txn 0.1 (which
  // shares both objects) is visited exactly once.
  EXPECT_EQ(ids[0], (TxnId{0, 1}));
  EXPECT_EQ(ids[1], (TxnId{0, 3}));
}

TEST(ConflictIndex, ScanVisitsMultiObjectSharerExactlyOnce) {
  core::ConflictIndex idx;
  idx.add(txn(0, 1, {1, 2, 3}, {4, 5}));
  const auto probe = txn(1, 1, {1, 4}, {2, 5});
  EXPECT_EQ(scan_ids(idx, *probe).size(), 1u);
}

TEST(ConflictIndex, ScanStopsEarlyWhenVisitorReturnsTrue) {
  core::ConflictIndex idx;
  for (std::uint64_t i = 1; i <= 8; ++i) idx.add(txn(0, i, {}, {1}));
  int visited = 0;
  const bool hit = idx.scan(*txn(1, 1, {1}, {}), 0, 1, [&](const auto&) {
    ++visited;
    return true;
  });
  EXPECT_TRUE(hit);
  EXPECT_EQ(visited, 1);
}

TEST(ConflictIndex, RemovePreservesBucketOrderOfTheRest) {
  core::ConflictIndex idx;
  idx.add(txn(0, 1, {}, {1}));
  idx.add(txn(0, 2, {}, {1}));
  idx.add(txn(0, 3, {}, {1}));
  idx.remove(TxnId{0, 2});
  const auto ids = scan_ids(idx, *txn(1, 1, {1}, {}));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], (TxnId{0, 1}));
  EXPECT_EQ(ids[1], (TxnId{0, 3}));
  idx.remove(TxnId{0, 2});  // removing an absent id is a no-op
  EXPECT_EQ(idx.size(), 2u);
}

TEST(ConflictIndex, ClearEmptiesButKeepsPositionsGrowing) {
  core::ConflictIndex idx;
  const auto before = idx.add(txn(0, 1, {}, {1}));
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(scan_ids(idx, *txn(1, 1, {1}, {})).empty());
  // Positions stay unique across a crash-clear: WAL replay re-indexes the
  // rebuilt queue with fresh, larger positions.
  EXPECT_GT(idx.add(txn(0, 2, {}, {1})), before);
}

// ---------------------------------------------------------------------------
// S-DUR pruned-prefix regression (the headline bugfix). Before the
// PrunedSummary, the certifier scanned only the retained chain: driving a
// chain past kMaxDepth pruned the snapshot-invisible versions and silently
// flipped the verdict from abort to commit.
// ---------------------------------------------------------------------------

struct SdurChainRig {
  SdurChainRig() : cluster(config(), protocols::by_name("S-DUR")) {}

  static core::ClusterConfig config() {
    core::ClusterConfig cfg;
    cfg.sites = 4;
    cfg.replication = 1;
    cfg.objects_per_site = 16;
    return cfg;
  }

  void install(ObjectId obj, SiteId origin, std::uint64_t seq) {
    versioning::Stamp st;
    st.origin = origin;
    st.seq = seq;
    cluster.replica(0).install_version_for_testing(
        obj, store::Version{.writer = TxnId{origin, seq},
                            .pidx = ++pidx,
                            .commit_time = static_cast<SimTime>(pidx),
                            .stamp = st});
  }

  /// An update transaction at site 0 that read `obj` under snapshot `vts`.
  core::TxnRecord reader_txn(ObjectId obj,
                             std::vector<std::uint64_t> vts) const {
    core::TxnRecord t;
    t.id = TxnId{0, 1};
    t.rs.insert(obj);
    t.ws.insert(obj + 4);  // an update txn (read-only ones skip certify)
    t.reads.push_back(core::ReadEntry{.obj = obj, .part = 0, .writer = {},
                                      .pidx = 1});
    t.snap.vts = std::move(vts);
    return t;
  }

  /// Verdict of the real S-DUR certifier at replica 0.
  bool certify(const core::TxnRecord& t) {
    return cluster.spec().certify(
        core::CertContext{cluster.replica(0), t, seconds(1)});
  }

  /// Reference verdict over ALL versions ever installed (no pruning):
  /// commit iff every one is visible in the transaction's snapshot.
  bool unpruned_reference(const core::TxnRecord& t,
                          const std::vector<store::Version>& all) {
    for (const auto& v : all)
      if (!cluster.oracle().visible(v, 0, t.snap)) return false;
    return true;
  }

  core::Cluster cluster;
  std::uint64_t pidx = 0;
};

TEST(SdurPrunedChain, PrunedInvisibleVersionStillAborts) {
  SdurChainRig rig;
  const ObjectId obj = 0;  // lives at site 0 (= the certifying replica)
  std::vector<store::Version> all;

  // 18 versions by origin 2 (invisible below) then 24 by origin 3 (visible):
  // 42 installs prune twice (at 33 and 42), dropping exactly the 18
  // origin-2 versions. The retained chain is all-visible; only the
  // PrunedSummary still knows a conflicting version existed.
  const auto version_of = [](SiteId origin, std::uint64_t seq) {
    store::Version v{};
    v.stamp.origin = origin;
    v.stamp.seq = seq;
    return v;
  };
  for (std::uint64_t s = 1; s <= 18; ++s) rig.install(obj, 2, s);
  for (std::uint64_t s = 1; s <= 24; ++s) rig.install(obj, 3, s);
  for (std::uint64_t s = 1; s <= 18; ++s) all.push_back(version_of(2, s));
  for (std::uint64_t s = 1; s <= 24; ++s) all.push_back(version_of(3, s));

  const auto* chain = rig.cluster.replica(0).db().chain(obj);
  ASSERT_NE(chain, nullptr);
  ASSERT_EQ(chain->size(), 24u) << "precondition: both prunes happened";
  ASSERT_EQ(chain->pruned().count, 18u);
  for (std::size_t i = 0; i < chain->size(); ++i)
    ASSERT_EQ(chain->at(i).stamp.origin, 3)
        << "precondition: every origin-2 version was pruned";

  // Snapshot sees all of origin 3 but nothing of origin 2.
  const auto t = rig.reader_txn(obj, {0, 0, 0, 30});
  EXPECT_FALSE(rig.unpruned_reference(t, all));
  EXPECT_FALSE(rig.certify(t))
      << "pruning must not flip the S-DUR verdict to commit";
}

TEST(SdurPrunedChain, AllVisibleDeepChainStillCommits) {
  SdurChainRig rig;
  const ObjectId obj = 0;
  for (std::uint64_t s = 1; s <= 42; ++s) rig.install(obj, 3, s);
  ASSERT_GT(rig.cluster.replica(0).db().chain(obj)->pruned().count, 0u);
  // Snapshot covers every version, pruned ones included: the conservative
  // prefix check must not manufacture a spurious abort.
  const auto t = rig.reader_txn(obj, {0, 0, 0, 50});
  EXPECT_TRUE(rig.certify(t));
}

// ---------------------------------------------------------------------------
// GDUR_VERIFY_CERT equivalence stress: indexed certification must answer
// exactly like the pairwise queue scan, for every vote, on every protocol,
// with deep queues under chaos faults, at one shard per site (one slice) and
// at four (the OR of the touched slices). The cross-check runs inside
// Replica::queued_conflict and aborts the process on the first mismatch.
// ---------------------------------------------------------------------------

struct VerifyCertGuard {
  VerifyCertGuard() { core::set_verify_cert_for_testing(true); }
  ~VerifyCertGuard() { core::set_verify_cert_for_testing(std::nullopt); }
};

class VerifyCertStress : public ::testing::TestWithParam<int> {};

TEST_P(VerifyCertStress, IndexedVotesMatchPairwiseOnAllProtocolsUnderChaos) {
  VerifyCertGuard verify;
  const char* kNames[] = {"P-Store", "S-DUR",  "GMU",      "Serrano",
                          "Walter",  "Jessy2pc", "RC"};
  std::uint64_t total_txns = 0;
  std::uint64_t chaos_seed = 500;
  for (const char* name : kNames) {
    ++chaos_seed;
    core::ClusterConfig cfg;
    cfg.sites = 4;
    cfg.replication = 2;
    cfg.objects_per_site = 24;  // high contention => deep queues
    cfg.shards_per_site = GetParam();
    cfg.durable = true;
    cfg.term_timeout = milliseconds(500);
    cfg.client_timeout = seconds(2);
    cfg.faults = sim::FaultPlan::chaos(cfg.sites, seconds(3), chaos_seed);
    core::Cluster cluster(cfg, protocols::by_name(name));
    harness::Metrics metrics;
    std::vector<std::unique_ptr<workload::ClientActor>> actors;
    for (int i = 0; i < 24; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cfg.sites),
          workload::WorkloadSpec::B(0.2), metrics,
          mix64(41'000 + static_cast<std::uint64_t>(i))));
      actors.back()->start(i * microseconds(373));
    }
    cluster.simulator().run_until(seconds(4));
    EXPECT_GT(metrics.committed(), 0u) << name;
    for (const auto& a : actors) total_txns += a->txns_run();
  }
  EXPECT_GE(total_txns, 5'000u)
      << "the stress must exercise at least 5k transactions";
}

INSTANTIATE_TEST_SUITE_P(ShardsPerSite, VerifyCertStress,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gdur

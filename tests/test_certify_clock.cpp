// Certification clock discipline (gdur-hotpath-reachability's noclock
// contract on Replica::evaluate_certify).
//
// One certification = one timestamp. The sharded path fans a verdict out
// into per-shard sub-votes; each sub-vote's CertContext::now must be THE
// SAME value, read once before the fan-out. Reading cl_.now() inside the
// per-shard loop (the original code) is invisible under the simulator —
// sim time cannot advance inside a synchronous call — but under
// live::LiveCluster now() is a real steady_clock read, so sub-votes saw
// (a) one clock syscall per touched shard on the certification hot path
// and (b) *different* timestamps, letting a certify() that consults
// ctx.now diverge from its own unsharded verdict.
//
// The seam: Cluster::now() is virtual. TickingCluster advances its clock
// on every read, so the test observes exactly how many reads the
// certification path performs and what each sub-vote was told the time
// was — deterministically, with no live threads.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/protocol_spec.h"
#include "core/replica.h"
#include "protocols/protocols.h"

namespace gdur::core {

struct CertifyTestPeer {
  static bool evaluate(const Replica& r, const TxnRecord& t) {
    return r.evaluate_certify(t);
  }
};

namespace {

/// Every now() read returns a strictly larger time — any second read on
/// the certification path becomes visible as a timestamp mismatch.
class TickingCluster : public Cluster {
 public:
  using Cluster::Cluster;

  [[nodiscard]] SimTime now() const override { return base_ + ++reads_; }
  [[nodiscard]] int reads() const { return reads_; }
  void reset_reads() { reads_ = 0; }

 private:
  SimTime base_ = 1'000'000;
  mutable int reads_ = 0;
};

struct SubVote {
  int shard;
  int shards;
  SimTime now;
};

/// A shardable spec whose certify() records what each sub-vote observed.
ProtocolSpec recording_spec(std::vector<SubVote>* log) {
  ProtocolSpec s = protocols::by_name("P-Store");
  s.certify = [log](const CertContext& ctx) {
    log->push_back({ctx.shard, ctx.shards, ctx.now});
    return true;
  };
  s.certify_shardable = true;
  s.trivial_certify = false;
  return s;
}

TxnRecord cross_shard_txn() {
  TxnRecord t;
  t.id = TxnId{0, 1};
  t.rs = {0, 1};  // shard_of(o, 4) = o % 4: touches shards 0..3
  t.ws = {2, 3};
  return t;
}

TEST(CertifyClock, ShardedSubVotesShareOneTimestamp) {
  std::vector<SubVote> log;
  ClusterConfig cfg;
  cfg.sites = 2;
  cfg.replication = 2;
  cfg.shards_per_site = 4;
  TickingCluster cluster(cfg, recording_spec(&log));
  cluster.reset_reads();

  const TxnRecord t = cross_shard_txn();
  EXPECT_TRUE(CertifyTestPeer::evaluate(cluster.replica(0), t));

  // All four touched shards voted, in ascending shard order.
  ASSERT_EQ(log.size(), 4u);
  for (int sh = 0; sh < 4; ++sh) EXPECT_EQ(log[sh].shard, sh);

  // One clock read for the whole certification, and every sub-vote was
  // told the same time. Under the pre-fix code this fails on both counts:
  // reads() == 4 and log[i].now == base + i + 1.
  EXPECT_EQ(cluster.reads(), 1);
  for (const SubVote& v : log) EXPECT_EQ(v.now, log[0].now);
}

TEST(CertifyClock, SerialPathAlsoReadsOnce) {
  std::vector<SubVote> log;
  ClusterConfig cfg;
  cfg.sites = 2;
  cfg.replication = 2;
  cfg.shards_per_site = 1;  // serial certification
  TickingCluster cluster(cfg, recording_spec(&log));
  cluster.reset_reads();

  EXPECT_TRUE(CertifyTestPeer::evaluate(cluster.replica(0),
                                        cross_shard_txn()));
  ASSERT_EQ(log.size(), 1u);
  // Full certification: shard 0 of 1, no shard restriction.
  EXPECT_TRUE(log[0].shards == 1 && log[0].shard == 0);
  EXPECT_EQ(cluster.reads(), 1);
}

TEST(CertifyClock, NonShardableSpecFallsBackToOneFullVote) {
  std::vector<SubVote> log;
  ClusterConfig cfg;
  cfg.sites = 2;
  cfg.replication = 2;
  cfg.shards_per_site = 4;
  ProtocolSpec spec = recording_spec(&log);
  spec.certify_shardable = false;  // custom coupled certify()
  TickingCluster cluster(cfg, std::move(spec));
  cluster.reset_reads();

  EXPECT_TRUE(CertifyTestPeer::evaluate(cluster.replica(0),
                                        cross_shard_txn()));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].shards == 1 && log[0].shard == 0);
  EXPECT_EQ(cluster.reads(), 1);
}

}  // namespace
}  // namespace gdur::core

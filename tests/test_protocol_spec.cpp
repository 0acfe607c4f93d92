// Tests for the plugin table: certifying_obj, vote scopes, commute
// predicates, and the six protocol definitions of §6.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/protocol_spec.h"
#include "protocols/protocols.h"

namespace gdur::core {
namespace {

TxnRecord update_txn() {
  TxnRecord t;
  t.id = {0, 1};
  t.rs = {1, 2};
  t.ws = {3};
  return t;
}

TxnRecord query_txn() {
  TxnRecord t;
  t.id = {0, 2};
  t.rs = {1, 2};
  return t;
}

TEST(CertifyingObjects, WaitFreeQueriesYieldEmptySet) {
  const store::Partitioner part(4, 1, 100);
  auto spec = protocols::walter();
  const auto cs = certifying_objects(spec, query_txn(), part);
  EXPECT_TRUE(cs.empty());
}

TEST(CertifyingObjects, PStoreCertifiesQueriesToo) {
  const store::Partitioner part(4, 1, 100);
  const auto spec = protocols::p_store();
  const auto cs = certifying_objects(spec, query_txn(), part);
  EXPECT_FALSE(cs.empty());
  EXPECT_EQ(cs.objs, (ObjSet{1, 2}));
}

TEST(CertifyingObjects, WriteSetScope) {
  const store::Partitioner part(4, 1, 100);
  const auto spec = protocols::walter();
  const auto cs = certifying_objects(spec, update_txn(), part);
  EXPECT_EQ(cs.objs, (ObjSet{3}));
}

TEST(CertifyingObjects, ReadWriteSetScope) {
  const store::Partitioner part(4, 1, 100);
  const auto spec = protocols::gmu();
  const auto cs = certifying_objects(spec, update_txn(), part);
  EXPECT_EQ(cs.objs, (ObjSet{1, 2, 3}));
}

TEST(CertifyingObjects, SerranoUsesAllObjects) {
  const store::Partitioner part(4, 1, 100);
  const auto spec = protocols::serrano();
  const auto cs = certifying_objects(spec, update_txn(), part);
  EXPECT_TRUE(cs.all);
  // ... but queries still commit locally.
  EXPECT_TRUE(certifying_objects(spec, query_txn(), part).empty());
}

TEST(CertifyingObjects, PStoreLaCommitsSingleSiteQueriesLocally) {
  const store::Partitioner part(4, 1, 100);
  const auto spec = protocols::p_store_la();
  TxnRecord local_q;
  local_q.rs = {0, 4};  // both in partition 0
  EXPECT_TRUE(certifying_objects(spec, local_q, part).empty());
  TxnRecord global_q;
  global_q.rs = {0, 1};  // partitions 0 and 1
  EXPECT_EQ(certifying_objects(spec, global_q, part).objs, (ObjSet{0, 1}));
  // Updates always certify.
  EXPECT_FALSE(certifying_objects(spec, update_txn(), part).empty());
}

TEST(VoteObjects, ScopesResolveCorrectly) {
  const auto t = update_txn();
  const CertifyingSet cs{.all = false, .objs = t.rs.unioned(t.ws)};
  EXPECT_EQ(vote_objects(VoteScope::kCertifying, cs, t), (ObjSet{1, 2, 3}));
  EXPECT_EQ(vote_objects(VoteScope::kWriteSet, cs, t), (ObjSet{3}));
  EXPECT_TRUE(vote_objects(VoteScope::kLocalObjects, cs, t).empty());
}

TEST(Commute, RwDisjoint) {
  TxnRecord a, b;
  a.rs = {1};
  a.ws = {2};
  b.rs = {3};
  b.ws = {4};
  EXPECT_TRUE(commute_rw_disjoint(a, b));
  b.ws = {1};  // b writes what a reads
  EXPECT_FALSE(commute_rw_disjoint(a, b));
  b.ws = {2};  // pure write-write overlap commutes under this predicate
  EXPECT_TRUE(commute_rw_disjoint(a, b));
}

TEST(Commute, WwDisjoint) {
  TxnRecord a, b;
  a.ws = {1, 2};
  b.ws = {3};
  EXPECT_TRUE(commute_ww_disjoint(a, b));
  b.ws = {2};
  EXPECT_FALSE(commute_ww_disjoint(a, b));
  // Read overlaps do not matter for snapshot-family protocols.
  b.ws = {3};
  b.rs = {1, 2};
  EXPECT_TRUE(commute_ww_disjoint(a, b));
}

TEST(ProtocolDefinitions, MatchThePaperTable) {
  using versioning::VersioningKind;
  const auto ps = protocols::p_store();
  EXPECT_EQ(ps.theta, VersioningKind::kTS);
  EXPECT_EQ(ps.choose, ChooseKind::kLast);
  EXPECT_EQ(ps.ac, AcKind::kGroupComm);
  EXPECT_FALSE(ps.wait_free_queries);

  const auto sd = protocols::s_dur();
  EXPECT_EQ(sd.theta, VersioningKind::kVTS);
  EXPECT_EQ(sd.xcast, XcastKind::kPairwiseMulticast);
  EXPECT_TRUE(sd.wait_free_queries);
  EXPECT_TRUE(static_cast<bool>(sd.post_commit));

  const auto g = protocols::gmu();
  EXPECT_EQ(g.theta, VersioningKind::kGMV);
  EXPECT_EQ(g.ac, AcKind::kTwoPhaseCommit);
  EXPECT_EQ(g.certifying, CertScope::kReadWriteSet);

  const auto se = protocols::serrano();
  EXPECT_EQ(se.theta, VersioningKind::kTS);
  EXPECT_EQ(se.xcast, XcastKind::kAtomicBroadcast);
  EXPECT_TRUE(se.track_all_objects);
  EXPECT_EQ(se.vote_snd, VoteScope::kLocalObjects);

  const auto w = protocols::walter();
  EXPECT_EQ(w.theta, VersioningKind::kVTS);
  EXPECT_EQ(w.ac, AcKind::kTwoPhaseCommit);
  EXPECT_EQ(w.certifying, CertScope::kWriteSet);
  EXPECT_TRUE(static_cast<bool>(w.post_commit));

  const auto j = protocols::jessy2pc();
  EXPECT_EQ(j.theta, VersioningKind::kPDV);
  EXPECT_EQ(j.certifying, CertScope::kWriteSet);
  EXPECT_FALSE(static_cast<bool>(j.post_commit));  // genuine: no propagation
}

TEST(ProtocolDefinitions, AblationsDifferOnlyWhereIntended) {
  const auto g = protocols::gmu();
  const auto g1 = protocols::gmu_star();
  const auto g2 = protocols::gmu_star_star();
  EXPECT_EQ(g1.choose, ChooseKind::kLast);
  EXPECT_TRUE(g1.send_metadata);
  EXPECT_EQ(g1.theta, g.theta);
  EXPECT_FALSE(g1.trivial_certify);
  EXPECT_TRUE(g2.trivial_certify);

  const auto rc = protocols::rc();
  EXPECT_FALSE(rc.send_metadata);
  EXPECT_TRUE(rc.trivial_certify);
}

TEST(ProtocolRegistry, ResolvesEveryName) {
  for (const char* name :
       {"P-Store", "S-DUR", "GMU", "Serrano", "Walter", "Jessy2pc", "RC",
        "GMU*", "GMU**", "P-Store-LA", "P-Store+2PC", "P-Store-FT"}) {
    EXPECT_EQ(protocols::by_name(name).name, name);
  }
  EXPECT_THROW(protocols::by_name("nope"), std::invalid_argument);
}

TEST(ProtocolRegistry, EveryProtocolClaimsACheckableCriterion) {
  const std::pair<const char*, std::string> claims[] = {
      {"P-Store", "SER"},     {"S-DUR", "SER"},      {"GMU", "US"},
      {"Serrano", "SI"},      {"Walter", "PSI"},     {"Jessy2pc", "NMSI"},
      {"RC", "RC"},           {"RAMP", "RA"},        {"GMU*", "RC"},
      {"GMU**", "RC"},        {"P-Store-LA", "SER"}, {"P-Store+2PC", "SER"},
      {"P-Store-FT", "SER"},  {"P-Store+Paxos", "SER"}};
  for (const auto& [name, criterion] : claims)
    EXPECT_EQ(protocols::by_name(name).criterion, criterion) << name;
}

}  // namespace
}  // namespace gdur::core

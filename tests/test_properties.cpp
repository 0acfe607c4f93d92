// Property-based tests: run each protocol on real (contended) workloads and
// verify the consistency criterion it claims, using the history checker.
//
// The key space is deliberately tiny (hundreds of objects) so that
// conflicts are frequent and the certification logic is genuinely
// exercised; a violation here is a protocol bug, not noise.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "checker/history.h"
#include "harness/metrics.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

struct PropertyRun {
  checker::History history;
  harness::Metrics metrics;
};

std::unique_ptr<PropertyRun> run_history(
    const core::ProtocolSpec& spec, const workload::WorkloadSpec& wl,
    std::uint64_t seed, int replication = 1, int clients = 24,
    SimDuration window = seconds(2)) {
  core::ClusterConfig ccfg;
  ccfg.sites = 4;
  ccfg.replication = replication;
  ccfg.objects_per_site = 64;  // 256 objects: heavy contention
  ccfg.seed = seed;
  core::Cluster cluster(ccfg, spec);

  auto run = std::make_unique<PropertyRun>();
  run->history.attach(cluster);

  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (int i = 0; i < clients; ++i) {
    auto c = std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % 4), wl, run->metrics,
        mix64(seed * 977 + static_cast<std::uint64_t>(i)));
    c->set_observer([&cluster, h = &run->history](const core::TxnRecord& t,
                                                  bool committed) {
      h->record_txn(t, committed, cluster.simulator().now());
    });
    c->start(static_cast<SimTime>(i) * microseconds(431));
    actors.push_back(std::move(c));
  }
  cluster.simulator().run_until(window);
  return run;
}

using Param = std::tuple<const char*, char /*workload*/, int /*seed*/>;

class ProtocolProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ProtocolProperty, UpholdsItsConsistencyCriterion) {
  const auto& [name, wl_name, seed] = GetParam();
  workload::WorkloadSpec wl = wl_name == 'A'   ? workload::WorkloadSpec::A(0.8)
                              : wl_name == 'B' ? workload::WorkloadSpec::B(0.6)
                                               : workload::WorkloadSpec::C(0.8);
  const auto spec = protocols::by_name(name);
  const auto run = run_history(spec, wl, static_cast<std::uint64_t>(seed));

  // Liveness: the protocol makes progress under contention. (The bar is
  // deliberately modest: SER-family protocols abort heavily on a 256-object
  // key space, which is exactly the behavior §8.2 reports.)
  EXPECT_GT(run->history.committed_count(), 120u) << name;

  // Safety: read committed always holds...
  const auto rc = run->history.check_read_committed();
  EXPECT_TRUE(rc.ok) << name << ": " << rc.detail;
  // ... plus the protocol's own criterion.
  const auto res = run->history.check_criterion(spec.criterion);
  EXPECT_TRUE(res.ok) << name << " violates " << spec.criterion << ": "
                      << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Criteria, ProtocolProperty,
    ::testing::Combine(
        ::testing::Values("P-Store", "S-DUR", "GMU", "Serrano", "Walter",
                          "Jessy2pc", "RC", "P-Store+2PC", "P-Store-LA",
                          "P-Store+Paxos", "P-Store-FT", "RAMP"),
        ::testing::Values('A', 'B', 'C'), ::testing::Values(1, 2)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (auto& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n + "_" + std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param));
    });

class DtProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DtProperty, CriterionHoldsUnderReplication) {
  const auto spec = protocols::by_name(GetParam());
  const auto run =
      run_history(spec, workload::WorkloadSpec::A(0.8), 3, /*replication=*/2);
  EXPECT_GT(run->history.committed_count(), 200u);
  const auto res = run->history.check_criterion(spec.criterion);
  EXPECT_TRUE(res.ok) << GetParam() << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Criteria, DtProperty,
                         ::testing::Values("P-Store", "GMU", "Walter",
                                           "Jessy2pc", "S-DUR", "Serrano"));

TEST(ProtocolBehavior, SerFamilyAbortsMoreThanWwFamilyUnderContention) {
  // GMU certifies read sets; Walter/Jessy only write sets. Under a
  // contended read-write workload the abort rates must separate (§8.2).
  const auto wl = workload::WorkloadSpec::B(0.5);
  const auto gmu = run_history(protocols::gmu(), wl, 7);
  const auto walter = run_history(protocols::walter(), wl, 7);
  EXPECT_GT(gmu->metrics.upd_abort_ratio_pct(),
            walter->metrics.upd_abort_ratio_pct());
}

TEST(ProtocolBehavior, RcAbortsNothing) {
  const auto rc = run_history(protocols::rc(), workload::WorkloadSpec::C(0.5),
                              11);
  EXPECT_EQ(rc->metrics.aborted_upd, 0u);
  EXPECT_EQ(rc->metrics.aborted_ro, 0u);
}

TEST(ProtocolBehavior, ZipfianContentionRaisesAborts) {
  const auto uni =
      run_history(protocols::p_store(), workload::WorkloadSpec::A(0.5), 13);
  const auto zipf =
      run_history(protocols::p_store(), workload::WorkloadSpec::C(0.5), 13);
  EXPECT_GE(zipf->metrics.abort_ratio_pct(), uni->metrics.abort_ratio_pct());
}

// Paxos Commit must hear every participant's instance before it decides.
// With certifying = all objects every member is a participant; a learner
// that sized the participant set from the certifying objects alone saw an
// empty set and committed once the first instance closed, over the other
// participants' no votes.
TEST(ProtocolBehavior, PaxosCommitOverAllObjectsWaitsForEveryParticipant) {
  auto spec = protocols::p_store_paxos();
  spec.certifying = core::CertScope::kAllObjects;
  const auto run = run_history(spec, workload::WorkloadSpec::B(0.6), 1);
  EXPECT_GT(run->history.committed_count(), 100u);
  const auto res = run->history.check_criterion("SER");
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(ProtocolBehavior, HistoriesAreDeterministic) {
  const auto a = run_history(protocols::jessy2pc(),
                             workload::WorkloadSpec::A(0.8), 17);
  const auto b = run_history(protocols::jessy2pc(),
                             workload::WorkloadSpec::A(0.8), 17);
  EXPECT_EQ(a->history.committed_count(), b->history.committed_count());
  EXPECT_EQ(a->metrics.aborted(), b->metrics.aborted());
}

}  // namespace
}  // namespace gdur

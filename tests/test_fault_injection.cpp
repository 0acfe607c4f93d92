// Fault-injection subsystem tests (sim/fault + the layers it threads
// through): injector semantics, the transport's ack/retransmit layer,
// crash-with-state-loss at the CPU and WAL, and a protocol fault matrix —
// every registered protocol must uphold its consistency criterion under
// lossy links, a healed partition, and a crash with WAL recovery.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"
#include "net/transport.h"
#include "protocols/protocols.h"
#include "sim/cpu.h"
#include "sim/fault.h"
#include "store/wal.h"
#include "workload/client.h"

namespace gdur {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector semantics.
// ---------------------------------------------------------------------------

TEST(FaultInjector, BlackoutCutsOnlyTheConfiguredWindow) {
  sim::FaultPlan plan;
  plan.blackout(0, 1, milliseconds(100), milliseconds(200));
  sim::FaultInjector fi(plan);
  EXPECT_FALSE(fi.link_cut(0, 1, milliseconds(50)));
  EXPECT_TRUE(fi.link_cut(0, 1, milliseconds(150)));
  EXPECT_FALSE(fi.link_cut(0, 1, milliseconds(250)));
  EXPECT_FALSE(fi.link_cut(1, 0, milliseconds(150))) << "directed blackout";
}

TEST(FaultInjector, PartitionCutsCrossGroupLinksBothWays) {
  sim::FaultPlan plan;
  plan.partition({{0, 1}, {2, 3}}, milliseconds(100), milliseconds(300));
  sim::FaultInjector fi(plan);
  EXPECT_TRUE(fi.link_cut(0, 2, milliseconds(150)));
  EXPECT_TRUE(fi.link_cut(3, 1, milliseconds(150)));
  EXPECT_FALSE(fi.link_cut(0, 1, milliseconds(150))) << "same group";
  EXPECT_FALSE(fi.link_cut(0, 2, milliseconds(350))) << "healed";
}

TEST(FaultInjector, CrashWindowsAreKnown) {
  sim::FaultPlan plan;
  plan.crash(2, milliseconds(100), milliseconds(400));
  sim::FaultInjector fi(plan);
  EXPECT_FALSE(fi.crashed(2, milliseconds(50)));
  EXPECT_TRUE(fi.crashed(2, milliseconds(200)));
  EXPECT_FALSE(fi.crashed(2, milliseconds(400)));
  EXPECT_FALSE(fi.crashed(1, milliseconds(200)));
  EXPECT_EQ(fi.recovery_end(2, milliseconds(200)), milliseconds(400));
}

TEST(FaultInjector, CertainLossDropsEveryAttempt) {
  sim::FaultPlan plan;
  plan.drop_all(1.0);
  sim::FaultInjector fi(plan);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(fi.attempt(0, 1, i, i + 1));
}

TEST(FaultInjector, ChaosPlanIsAPureFunctionOfItsSeed) {
  const auto a = sim::FaultPlan::chaos(4, seconds(5), 42);
  const auto b = sim::FaultPlan::chaos(4, seconds(5), 42);
  const auto c = sim::FaultPlan::chaos(4, seconds(5), 43);
  ASSERT_EQ(a.links.size(), b.links.size());
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].site, b.crashes[i].site);
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
  }
  bool differs = a.links.size() != c.links.size() ||
                 a.crashes.size() != c.crashes.size();
  for (std::size_t i = 0; !differs && i < a.crashes.size(); ++i)
    differs = a.crashes[i].at != c.crashes[i].at;
  EXPECT_TRUE(differs);
  // The plan must be survivable: retransmits outlast the worst window.
  EXPECT_GT(a.retransmit.give_up, milliseconds(400));
}

// ---------------------------------------------------------------------------
// Transport under faults: retransmission, FIFO, exactly-once.
// ---------------------------------------------------------------------------

class FaultyTransport : public ::testing::Test {
 protected:
  FaultyTransport()
      : net_(sim_, net::Topology::uniform(4, milliseconds(10)), plane_) {
    net_.set_jitter(0.0);
  }
  void install(const sim::FaultPlan& plan, std::uint64_t seed = 7) {
    fi_ = std::make_unique<sim::FaultInjector>(plan, seed);
    net_.set_fault_injector(fi_.get());
  }
  obs::ObsPlane plane_{obs::ObsPlaneConfig{.sites = 4}};
  sim::Simulator sim_;
  net::Transport net_;
  std::unique_ptr<sim::FaultInjector> fi_;
};

TEST_F(FaultyTransport, LossyLinkStillDeliversExactlyOnceViaRetransmit) {
  sim::FaultPlan plan;
  plan.drop_all(0.5).duplicate_all(0.3);
  install(plan);
  int delivered = 0;
  for (int i = 0; i < 50; ++i)
    sim_.at(i * milliseconds(1), [this, &delivered] {
      net_.send(0, 1, 64, [&delivered] { ++delivered; });
    });
  sim_.run();
  EXPECT_EQ(delivered, 50) << "every message must arrive exactly once";
  const auto dropped = plane_.total(obs::Counter::kMsgsDropped);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(plane_.total(obs::Counter::kRetransmits), dropped);
  EXPECT_EQ(plane_.total(obs::Counter::kMsgsExpired), 0u);
}

TEST_F(FaultyTransport, FifoOrderSurvivesLossAndRetransmission) {
  sim::FaultPlan plan;
  plan.drop_all(0.4);
  install(plan);
  std::vector<int> order;
  sim_.at(0, [this, &order] {
    for (int i = 0; i < 20; ++i)
      net_.send(0, 1, 64, [&order, i] { order.push_back(i); });
  });
  sim_.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(FaultyTransport, MessageIntoPermanentBlackoutExpires) {
  sim::FaultPlan plan;
  plan.blackout(0, 1, 0, sim::kNever);
  plan.retransmit.give_up = milliseconds(200);
  install(plan);
  bool delivered = false;
  sim_.at(0, [this, &delivered] {
    net_.send(0, 1, 64, [&delivered] { delivered = true; });
  });
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(plane_.total(obs::Counter::kMsgsExpired), 1u);
}

TEST_F(FaultyTransport, PartitionDelaysDeliveryUntilHeal) {
  sim::FaultPlan plan;
  plan.partition({{0}, {1}}, 0, milliseconds(300));
  install(plan);
  SimTime at = 0;
  sim_.at(0, [this, &at] { net_.send(0, 1, 64, [&] { at = sim_.now(); }); });
  sim_.run();
  EXPECT_GT(at, milliseconds(300)) << "delivered only after the heal";
  EXPECT_LT(at, milliseconds(800)) << "and promptly, given backoff";
}

// ---------------------------------------------------------------------------
// Crash-with-state-loss at the CPU and the WAL.
// ---------------------------------------------------------------------------

TEST(CpuCrash, CrashDiscardsQueuedJobsButPauseDoesNot) {
  sim::Simulator sim;
  sim::CpuResource paused(sim, 1), crashed(sim, 1);
  bool ran_paused = false, ran_crashed = false;
  sim.at(0, [&] {
    paused.submit(milliseconds(1), [&] { ran_paused = true; });
    crashed.submit(milliseconds(1), [&] { ran_crashed = true; });
    paused.block_until(milliseconds(100));
    crashed.crash_until(milliseconds(100));
  });
  sim.run();
  EXPECT_TRUE(ran_paused) << "a pause loses nothing";
  EXPECT_FALSE(ran_crashed) << "a crash orphans queued completions";
}

TEST(CpuCrash, DownSiteAcceptsNoWorkUntilRecovery) {
  sim::Simulator sim;
  sim::CpuResource cpu(sim, 1);
  bool during = false, after = false;
  sim.at(0, [&] { cpu.crash_until(milliseconds(100)); });
  sim.at(milliseconds(50), [&] {
    cpu.submit(milliseconds(1), [&] { during = true; });
  });
  sim.at(milliseconds(150), [&] {
    cpu.submit(milliseconds(1), [&] { after = true; });
  });
  sim.run();
  EXPECT_FALSE(during);
  EXPECT_TRUE(after);
  EXPECT_EQ(cpu.epoch(), 1u);
}

TEST(WalCrash, UnsyncedRecordsAreLostAndSyncedOnesSurvive) {
  sim::Simulator sim;
  store::WriteAheadLog wal(sim);
  bool first_done = false, second_done = false;
  sim.at(0, [&] {
    wal.append(64,
               store::WalRecord{store::WalRecord::Kind::kVote, TxnId{0, 1},
                                true, 0, nullptr},
               [&] { first_done = true; });
  });
  // The first sync (2ms device time) completes; crash while the second
  // record waits for its own fsync.
  sim.at(milliseconds(5), [&] {
    wal.append(64,
               store::WalRecord{store::WalRecord::Kind::kVote, TxnId{0, 2},
                                false, 0, nullptr},
               [&] { second_done = true; });
  });
  sim.at(milliseconds(6), [&] { wal.on_crash(); });
  sim.run();
  EXPECT_TRUE(first_done);
  EXPECT_FALSE(second_done) << "the crash ate the pending fsync";
  ASSERT_EQ(wal.stable().size(), 1u);
  EXPECT_EQ(wal.stable()[0].txn.seq, 1u);
  EXPECT_EQ(wal.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol fault matrix: every registered protocol, under each fault class,
// must keep committing and must uphold its consistency criterion.
// ---------------------------------------------------------------------------

const char* const kProtocols[] = {"P-Store", "S-DUR",    "GMU", "Serrano",
                                  "Walter",  "Jessy2pc", "RC"};

struct FaultyRig {
  FaultyRig(const core::ProtocolSpec& spec, core::ClusterConfig cfg,
            int clients, SimDuration window,
            const std::function<void(core::Cluster&)>& setup = {})
      : cluster(cfg, spec) {
    history.attach(cluster);
    if (setup) setup(cluster);
    for (int i = 0; i < clients; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cfg.sites),
          workload::WorkloadSpec::A(0.7), metrics,
          mix64(77'000 + static_cast<std::uint64_t>(i))));
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
  [[nodiscard]] std::size_t undecided() {
    std::size_t n = 0;
    for (SiteId s = 0; s < static_cast<SiteId>(cluster.sites()); ++s)
      n += cluster.replica(s).undecided_count();
    return n;
  }

  core::Cluster cluster;
  checker::History history;
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
};

core::ClusterConfig faulty_config(int rf) {
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.replication = rf;
  cfg.objects_per_site = 64;
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  return cfg;
}

class FaultMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultMatrix, LossyLinksUpholdCriterion) {
  auto cfg = faulty_config(/*rf=*/1);
  cfg.faults.drop_all(0.10);
  FaultyRig rig(protocols::by_name(GetParam()), cfg, 16, seconds(3));
  EXPECT_GT(rig.metrics.committed(), 100u) << "goodput must survive 10% loss";
  EXPECT_GT(rig.cluster.plane().total(obs::Counter::kMsgsDropped), 0u);
  const auto r = rig.history.check_criterion(rig.cluster.spec().criterion);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail;
}

TEST_P(FaultMatrix, PartitionHealsAndCriterionHolds) {
  auto cfg = faulty_config(/*rf=*/1);
  cfg.faults.partition({{0, 1}, {2, 3}}, milliseconds(400), milliseconds(900));
  FaultyRig rig(protocols::by_name(GetParam()), cfg, 16, seconds(3));
  EXPECT_GT(rig.metrics.committed(), 50u);
  const auto r = rig.history.check_criterion(rig.cluster.spec().criterion);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail;
  // After the heal the cluster keeps terminating: nothing left in doubt at
  // the cut except the transactions still in flight.
  EXPECT_LE(rig.txns_run() - rig.resolved(), rig.actors.size());
}

TEST_P(FaultMatrix, CrashWithWalRecoveryUpholdsCriterion) {
  auto cfg = faulty_config(/*rf=*/2);
  cfg.durable = true;
  cfg.faults.crash(1, milliseconds(400), milliseconds(800));
  FaultyRig rig(protocols::by_name(GetParam()), cfg, 16, seconds(3));
  EXPECT_GT(rig.metrics.committed(), 50u);
  std::uint64_t recoveries = 0;
  for (SiteId s = 0; s < 4; ++s)
    recoveries += rig.cluster.replica(s).recoveries();
  EXPECT_EQ(recoveries, 1u);
  const auto r = rig.history.check_criterion(rig.cluster.spec().criterion);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail;
}

// A site must never contradict itself: once its certification vote for a
// transaction is announced, every resend — protocol retries, timeout
// re-announcements, post-crash recovery — carries the same value. The
// recovery path used to violate this: the re-vote loop marked transactions
// voted while their value was still being recomputed, and the re-announce
// loop then shipped the default (false) my_vote, later contradicted by the
// real vote.
TEST_P(FaultMatrix, ExactlyOneVoteValuePerSiteAndTxnAcrossCrashes) {
  auto cfg = faulty_config(/*rf=*/2);
  cfg.durable = true;
  cfg.faults.crash(1, milliseconds(400), milliseconds(700));
  cfg.faults.crash(2, milliseconds(900), milliseconds(1200));

  std::map<std::tuple<SiteId, SiteId, std::uint64_t>, bool> first_vote;
  std::vector<std::string> contradictions;
  const auto watch_votes = [&](core::Cluster& cl) {
    cl.set_vote_observer([&](const core::Cluster::VoteEvent& e) {
      const auto key = std::make_tuple(e.voter, e.txn.coord, e.txn.seq);
      auto [it, inserted] = first_vote.emplace(key, e.vote);
      if (!inserted && it->second != e.vote)
        contradictions.push_back(
            "site " + std::to_string(e.voter) + " txn " +
            std::to_string(e.txn.coord) + "." + std::to_string(e.txn.seq) +
            ": " + (it->second ? "true" : "false") + " then " +
            (e.vote ? "true" : "false"));
    });
  };
  FaultyRig rig(protocols::by_name(GetParam()), cfg, 16, seconds(3),
                watch_votes);

  EXPECT_GT(rig.metrics.committed(), 50u);
  std::uint64_t recoveries = 0;
  for (SiteId s = 0; s < 4; ++s)
    recoveries += rig.cluster.replica(s).recoveries();
  EXPECT_EQ(recoveries, 2u);
  EXPECT_TRUE(contradictions.empty())
      << contradictions.size() << " contradictory votes, first: "
      << contradictions.front();
  const auto r = rig.history.check_criterion(rig.cluster.spec().criterion);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FaultMatrix,
                         ::testing::ValuesIn(kProtocols),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// Seeded chaos: a hostile sampled schedule, ≥10k transactions, and no
// transaction may hang — every one commits, aborts, or times out.
// ---------------------------------------------------------------------------

TEST(Chaos, TenThousandTxnsTerminateUnderSeededChaos) {
  auto cfg = faulty_config(/*rf=*/2);
  cfg.durable = true;
  cfg.faults = sim::FaultPlan::chaos(cfg.sites, seconds(8), /*seed=*/1234);
  FaultyRig rig(protocols::by_name("Walter"), cfg, 64, seconds(10));
  EXPECT_GE(rig.txns_run(), 10'000u);
  // Closed-loop clients have at most one transaction in flight each; every
  // other submitted transaction must have terminated one way or another.
  EXPECT_LE(rig.txns_run() - rig.resolved(), rig.actors.size());
  const auto r = rig.history.check_criterion("PSI");
  EXPECT_TRUE(r.ok) << r.detail;
}

// Regression: the crash-recovery re-announce pass used to iterate the
// replica's unordered termination table directly, so the order in which a
// recovering site re-sent votes / re-armed timeouts depended on hash-map
// iteration order — address-sensitive state that replays differently across
// runs and stdlibs. The pass now sorts the undecided TxnIds first. Replaying
// the identical crash scenario must reproduce the identical outcome
// sequence, byte for byte.
TEST(FaultDeterminism, CrashRecoveryReplayIsReproducible) {
  const auto run_once = [](const char* protocol) {
    auto cfg = faulty_config(/*rf=*/2);
    cfg.durable = true;
    cfg.faults.crash(1, milliseconds(400), milliseconds(800));
    FaultyRig rig(protocols::by_name(protocol), cfg, 16, seconds(3));
    std::string digest;
    for (const auto& out : rig.history.summaries()) {
      digest += out.id.str();
      digest += out.committed ? "+" : "-";
      digest += std::to_string(out.response_time);
      digest += ";";
    }
    return digest;
  };
  for (const char* protocol : {"Walter", "P-Store+2PC", "GMU"}) {
    const auto a = run_once(protocol);
    const auto b = run_once(protocol);
    ASSERT_FALSE(a.empty()) << protocol;
    EXPECT_EQ(a, b) << protocol
                    << ": crash-recovery replay diverged between two runs "
                       "of the identical scenario";
  }
}

TEST(Chaos, GroupCommunicationSurvivesChaosToo) {
  auto cfg = faulty_config(/*rf=*/2);
  cfg.durable = true;
  cfg.faults = sim::FaultPlan::chaos(cfg.sites, seconds(4), /*seed=*/99);
  FaultyRig rig(protocols::by_name("P-Store"), cfg, 24, seconds(5));
  EXPECT_GT(rig.metrics.committed(), 100u);
  EXPECT_LE(rig.txns_run() - rig.resolved(), rig.actors.size());
  const auto r = rig.history.check_criterion("SER");
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace gdur

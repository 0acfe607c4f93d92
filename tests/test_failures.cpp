// Availability tests (§5.3): a site *pause* — a benign outage (process
// freeze, VM migration) during which the site does no work but loses
// nothing; queued messages are processed when it resumes. Crashes with
// state loss are a different model — see sim/fault and
// tests/test_fault_injection.cpp.
//
// The dependability trade-off the paper quantifies:
//   * 2PC needs every participant — one unavailable replica blocks
//     commitment until it resumes;
//   * group-communication commitment needs only a voting quorum — with
//     replication (DT), one unavailable replica of an object is masked by
//     the other;
//   * Paxos Commit needs only a majority of acceptors — an unavailable
//     non-participant acceptor is masked.
#include <gtest/gtest.h>

#include <optional>

#include "core/cluster.h"
#include "net/topology.h"
#include "net/transport.h"
#include "protocols/protocols.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace gdur::core {
namespace {

ClusterConfig config(int sites, int rf) {
  ClusterConfig cfg;
  cfg.sites = sites;
  cfg.replication = rf;
  cfg.objects_per_site = 100;
  return cfg;
}

struct Outcome {
  bool committed = false;
  SimTime at = 0;
};

/// Runs one update transaction writing `key` from `coord` at time `start`.
std::shared_ptr<std::optional<Outcome>> launch_write(Cluster& cl, SiteId coord,
                                                     ObjectId key,
                                                     SimTime start) {
  auto out = std::make_shared<std::optional<Outcome>>();
  cl.simulator().at(start, [&cl, coord, key, out] {
    cl.begin(coord, [&cl, coord, key, out](MutTxnPtr t) {
      cl.write(coord, t, key, [&cl, coord, t, out] {
        cl.commit(coord, t, [&cl, out](bool ok) {
          *out = Outcome{ok, cl.simulator().now()};
        });
      });
    });
  });
  return out;
}

TEST(Failures, TwoPcBlocksUntilParticipantResumes) {
  Cluster cl(config(4, 1), protocols::walter());
  // Object 1 lives at site 1 only; site 1 is paused until t = 500ms.
  cl.transport().pause_site(1, milliseconds(500));
  const auto out = launch_write(cl, 0, 1, milliseconds(10));
  cl.simulator().run();
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->committed);
  EXPECT_GT((*out)->at, milliseconds(500)) << "2PC must block on the outage";
}

TEST(Failures, GcQuorumMasksOnePausedReplicaUnderDt) {
  // P-Store, DT: object 1 is replicated at sites 1 and 2. Site 2 is
  // paused; the voting quorum only needs one replica per object, so the
  // transaction commits long before the pause ends.
  Cluster cl(config(4, 2), protocols::p_store());
  cl.transport().pause_site(2, seconds(5));
  const auto out = launch_write(cl, 0, 1, milliseconds(10));
  cl.simulator().run_until(seconds(2));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->committed);
  EXPECT_LT((*out)->at, milliseconds(500))
      << "GC commitment must mask a single replica failure";
}

TEST(Failures, TwoPcDoesNotMaskPausedReplicaEvenUnderDt) {
  Cluster cl(config(4, 2), protocols::p_store_2pc());
  cl.transport().pause_site(2, milliseconds(800));
  const auto out = launch_write(cl, 0, 1, milliseconds(10));
  cl.simulator().run();
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->committed);
  EXPECT_GT((*out)->at, milliseconds(800))
      << "2PC waits for every participant, replicated or not";
}

TEST(Failures, PaxosCommitMasksMinorityAcceptorPause) {
  // Site 3 is neither coordinator nor replica of object 1, but it is one
  // of the four acceptors. Its unavailability must not delay commitment.
  Cluster cl(config(4, 1), protocols::p_store_paxos());
  cl.transport().pause_site(3, seconds(5));
  const auto out = launch_write(cl, 0, 1, milliseconds(10));
  cl.simulator().run_until(seconds(2));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->committed);
  EXPECT_LT((*out)->at, milliseconds(500));
}

TEST(Failures, PausedSiteResumesAndServesConsistentReads) {
  Cluster cl(config(4, 2), protocols::walter());
  cl.transport().pause_site(2, milliseconds(400));
  // Commit a write to object 1 (replicas 1 and 2) during the pause: the
  // messages buffer and are processed when the site resumes — nothing is
  // lost (contrast with the crash tests in test_fault_injection.cpp).
  const auto w = launch_write(cl, 0, 1, milliseconds(10));
  // After the pause, a reader served by site 2 must observe the write.
  auto saw_writer = std::make_shared<std::optional<bool>>();
  cl.simulator().at(seconds(1), [&cl, saw_writer] {
    cl.begin(2, [&cl, saw_writer](MutTxnPtr t) {
      cl.read(2, t, 1, [t, saw_writer](bool ok) {
        ASSERT_TRUE(ok);
        *saw_writer = t->reads.at(0).writer.valid();
      });
    });
  });
  cl.simulator().run();
  ASSERT_TRUE(w->has_value());
  EXPECT_TRUE((*w)->committed);
  ASSERT_TRUE(saw_writer->has_value());
  EXPECT_TRUE(**saw_writer);
}

TEST(Failures, NonParticipantPauseIsInvisibleToTwoPc) {
  Cluster cl(config(4, 1), protocols::jessy2pc());
  cl.transport().pause_site(3, seconds(5));
  // Coordinator 0 writes object 1 (site 1): site 3 plays no role.
  const auto out = launch_write(cl, 0, 1, milliseconds(10));
  cl.simulator().run_until(seconds(2));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->committed);
  EXPECT_LT((*out)->at, milliseconds(200));
}

// --- transport retransmit: backoff cap and seeded jitter --------------------

TEST(Retransmit, BackoffIsCappedUnderALongBlackout) {
  // A link dark for 2 s with max_rto = 40 ms: if the backoff kept doubling
  // past the cap, the sender would make only ~log2 attempts and rediscover
  // the healed link late; capped, it keeps probing roughly every 40 ms and
  // delivers within about one RTO of the heal.
  sim::Simulator sim;
  obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 2});
  net::Transport net(sim, net::Topology::uniform(2, milliseconds(1)), plane);
  sim::FaultPlan plan;
  plan.blackout(0, 1, 0, seconds(2));
  plan.retransmit.initial_rto = milliseconds(10);
  plan.retransmit.max_rto = milliseconds(40);
  plan.retransmit.give_up = seconds(5);
  sim::FaultInjector fi(plan, 7);
  net.set_fault_injector(&fi);
  SimTime at = sim::kNever;
  sim.at(0, [&] { net.send(0, 1, 64, [&] { at = sim.now(); }); });
  sim.run();
  ASSERT_NE(at, sim::kNever);
  EXPECT_GT(at, seconds(2));
  EXPECT_LT(at, seconds(2) + milliseconds(60))
      << "a capped RTO probes the healed link within ~max_rto (+jitter)";
  EXPECT_GE(plane.total(obs::Counter::kRetransmits), 40u)
      << "with the cap the sender probes ~every 40 ms, not exponentially";
}

TEST(Retransmit, JitterIsDeterministicPerSeedAndDecorrelatesSchedules) {
  // Same seed -> byte-identical retry schedule (reproducible faulty runs);
  // different seeds -> different retry instants (no synchronized storm).
  // Link jitter is zeroed so only the retransmit jitter can differ.
  const auto delivery_time = [](std::uint64_t jitter_seed) {
    sim::Simulator sim;
    obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 2});
    net::Transport net(sim, net::Topology::uniform(2, milliseconds(1)), plane,
                       sim::CostModel{}, 4, jitter_seed);
    net.set_jitter(0.0);
    sim::FaultPlan plan;
    plan.blackout(0, 1, 0, milliseconds(500));
    plan.retransmit.max_rto = milliseconds(40);
    sim::FaultInjector fi(plan, 7);
    net.set_fault_injector(&fi);
    SimTime at = sim::kNever;
    sim.at(0, [&] { net.send(0, 1, 64, [&] { at = sim.now(); }); });
    sim.run();
    return at;
  };
  EXPECT_EQ(delivery_time(11), delivery_time(11))
      << "the retry schedule is a pure function of the seed";
  EXPECT_NE(delivery_time(11), delivery_time(12))
      << "different seeds must desynchronize the retry instants";
}

class PaxosEngine : public ::testing::TestWithParam<const char*> {};

TEST_P(PaxosEngine, PaxosCommitBehavesLikeTwoPcWithoutFailures) {
  // Same decisions, one extra message delay.
  Cluster paxos(config(4, 1), protocols::p_store_paxos());
  Cluster tpc(config(4, 1), protocols::p_store_2pc());
  const auto a = launch_write(paxos, 0, 1, 0);
  const auto b = launch_write(tpc, 0, 1, 0);
  paxos.simulator().run();
  tpc.simulator().run();
  ASSERT_TRUE(a->has_value());
  ASSERT_TRUE(b->has_value());
  EXPECT_TRUE((*a)->committed);
  EXPECT_TRUE((*b)->committed);
  EXPECT_GT((*a)->at, (*b)->at);                          // extra delay...
  EXPECT_LT((*a)->at, (*b)->at + milliseconds(60));       // ...but bounded
}

INSTANTIATE_TEST_SUITE_P(One, PaxosEngine, ::testing::Values("x"));

TEST(PaxosCommit, ConflictingReadersWritersNeverBothCommit) {
  // Two read-modify-write transactions crossing each other (T1 reads x
  // writes y, T2 reads y writes x): under SER at most one may commit.
  Cluster cl(config(4, 1), protocols::p_store_paxos());
  int committed = 0;
  auto launch_rmw = [&cl, &committed](SiteId coord, ObjectId rd, ObjectId wr) {
    cl.simulator().at(0, [&cl, &committed, coord, rd, wr] {
      cl.begin(coord, [&cl, &committed, coord, rd, wr](MutTxnPtr t) {
        cl.read(coord, t, rd, [&cl, &committed, coord, wr, t](bool ok) {
          ASSERT_TRUE(ok);
          cl.write(coord, t, wr, [&cl, &committed, coord, t] {
            cl.commit(coord, t,
                      [&committed](bool c) { committed += c ? 1 : 0; });
          });
        });
      });
    });
  };
  launch_rmw(0, 1, 2);
  launch_rmw(3, 2, 1);
  cl.simulator().run();
  EXPECT_LE(committed, 1);
}

TEST(PaxosCommit, ReadWriteTransactionsCommit) {
  Cluster cl(config(4, 1), protocols::p_store_paxos());
  auto out = std::make_shared<std::optional<bool>>();
  cl.simulator().at(0, [&cl, out] {
    cl.begin(0, [&cl, out](MutTxnPtr t) {
      cl.read(0, t, 2, [&cl, t, out](bool ok) {
        ASSERT_TRUE(ok);
        cl.write(0, t, 3, [&cl, t, out] {
          cl.commit(0, t, [out](bool c) { *out = c; });
        });
      });
    });
  });
  cl.simulator().run();
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE(**out);
}

}  // namespace
}  // namespace gdur::core

// Observability plane (src/obs, DESIGN.md §13): lock-free stats, the
// flight recorder (including a byte-for-byte golden dump), the stall
// watchdog, the online invariant monitor — and the two properties the
// plane must hold end to end:
//
//   1. A fault-free run produces zero violations, trips, and dumps. (That
//      the always-on plane never perturbs the simulator is pinned by the
//      determinism golden, recorded before the plane existed.)
//   2. Seeded misbehavior (sim::Sabotage double-vote / epoch-regress) is
//      caught *online*, with a flight dump left behind — the mutation
//      tests that prove the monitor is not vacuously green — including by
//      the plane a cluster builds for itself when none is supplied.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/metrics.h"
#include "live/mailbox.h"
#include "obs/plane.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

// ---------------------------------------------------------------------------
// StatsSlot / StatsRegistry.
// ---------------------------------------------------------------------------

TEST(ObsStats, CountersAndHistogramBuckets) {
  obs::StatsSlot s;
  s.record(obs::Counter::kTxnCommitted);
  s.record(obs::Counter::kTxnCommitted, 4);
  EXPECT_EQ(s.value(obs::Counter::kTxnCommitted), 5u);
  EXPECT_EQ(s.value(obs::Counter::kTxnAborted), 0u);

  s.record_value(obs::Hist::kMsgBytes, 0);    // bucket 0
  s.record_value(obs::Hist::kMsgBytes, 1);    // bucket 0
  s.record_value(obs::Hist::kMsgBytes, 2);    // bucket 1
  s.record_value(obs::Hist::kMsgBytes, 3);    // bucket 1
  s.record_value(obs::Hist::kMsgBytes, 1024); // bucket 10
  EXPECT_EQ(s.bucket(obs::Hist::kMsgBytes, 0), 2u);
  EXPECT_EQ(s.bucket(obs::Hist::kMsgBytes, 1), 2u);
  EXPECT_EQ(s.bucket(obs::Hist::kMsgBytes, 10), 1u);
}

TEST(ObsStats, SingleWriterModeCountsIdentically) {
  obs::StatsSlot s;
  s.set_single_writer(true);
  s.record(obs::Counter::kVotesSent, 3);
  s.record(obs::Counter::kVotesSent);
  s.record_value(obs::Hist::kCertifyUs, 7);
  s.set_single_writer(false);  // switching back composes with RMW updates
  s.record(obs::Counter::kVotesSent, 2);
  EXPECT_EQ(s.value(obs::Counter::kVotesSent), 6u);
  EXPECT_EQ(s.bucket(obs::Hist::kCertifyUs, 2), 1u);
}

TEST(ObsStats, SnapshotAggregatesAndExports) {
  obs::StatsRegistry reg(3);
  reg.slot(0).record(obs::Counter::kMsgsSent, 7);
  reg.slot(1).record(obs::Counter::kMsgsSent, 5);
  reg.slot(2).record_value(obs::Hist::kCertifyUs, 100);

  const auto snap = reg.snapshot(microseconds(42));
  EXPECT_EQ(snap.at, microseconds(42));
  EXPECT_EQ(snap.total[static_cast<std::size_t>(obs::Counter::kMsgsSent)],
            12u);
  EXPECT_EQ(snap.per_slot[1][static_cast<std::size_t>(obs::Counter::kMsgsSent)],
            5u);

  const std::string json = obs::StatsRegistry::to_json(snap);
  EXPECT_NE(json.find("\"msgs_sent\": 12"), std::string::npos) << json;
  const std::string prom = obs::StatsRegistry::to_prometheus(snap);
  EXPECT_NE(prom.find("gdur_msgs_sent 12"), std::string::npos) << prom;
  EXPECT_NE(prom.find("slot=\"1\""), std::string::npos) << prom;
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(ObsFlight, RingRetainsOnlyTheLastCapacityEvents) {
  obs::FlightRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i)
    ring.append("ev", static_cast<SimTime>(i), 0, i);
  EXPECT_EQ(ring.appended(), 20u);

  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 8u);  // the oldest 12 were overwritten
  EXPECT_EQ(events.front().a, 12u);
  EXPECT_EQ(events.back().a, 19u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(ObsFlight, MergedDumpIsSortedAcrossRings) {
  obs::FlightRecorder fr(2, 8);
  fr.ring(1).append("late", milliseconds(3), 1);
  fr.ring(0).append("early", milliseconds(1), 0);
  fr.ring(1).append("mid", milliseconds(2), 1);
  const auto all = fr.collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[0].name, "early");
  EXPECT_STREQ(all[1].name, "mid");
  EXPECT_STREQ(all[2].name, "late");
}

// The text dump is a deterministic, diffable artifact — operators compare
// dumps across runs, so its shape is pinned byte-for-byte.
// Regenerate: GDUR_UPDATE_GOLDEN=1 ./build/tests/test_obs_plane
TEST(ObsFlight, TextDumpMatchesGoldenByteForByte) {
  constexpr const char* kGoldenPath =
      GDUR_SOURCE_DIR "/tests/golden/flight_dump.txt";

  obs::FlightRecorder fr(3, 8);
  fr.ring(0).append("txn_submit", microseconds(10), 0, 7, 1);
  fr.ring(1).append("vote", microseconds(15), 1, 7, 1);
  fr.ring(2).append("vote", microseconds(15), 2, 7, 0);
  fr.ring(0).append("decide", microseconds(40), 0, 7, 1);
  fr.ring(1).append("epoch_activate", milliseconds(600), 1, 1);
  fr.ring(2).append("watchdog_trip", seconds(2), 2, 4, 0);
  const std::string text = fr.dump_text("golden-test");

  if (std::getenv("GDUR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << text;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  std::ifstream f(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden " << kGoldenPath
                        << " (run with GDUR_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), text) << "flight-dump text format drifted";

  // The Chrome-trace variant stays valid-looking JSON with every event.
  const std::string json = fr.dump_chrome_json("golden-test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_activate\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Invariant monitor (unit level).
// ---------------------------------------------------------------------------

TEST(ObsInvariants, ConsistentObservationsStayQuiet) {
  obs::InvariantMonitor m;
  const TxnId t{0, 1};
  m.note_vote(1, t, true, microseconds(1));
  m.note_vote(1, t, true, microseconds(2));  // re-announcement, same value
  m.note_epoch(0, 0, microseconds(3));
  m.note_epoch(0, 1, microseconds(4));
  m.note_decided(0, t, true, microseconds(5));
  m.note_decided(1, t, true, microseconds(6));
  m.note_wal_decision(0, t, true, microseconds(7));
  EXPECT_EQ(m.violations(), 0u);
}

TEST(ObsInvariants, DoubleVoteIsCaught) {
  obs::InvariantMonitor m;
  const TxnId t{0, 1};
  m.note_vote(2, t, true, microseconds(1));
  m.note_vote(2, t, false, microseconds(2));  // contradiction
  m.note_vote(2, t, true, microseconds(3));   // matches the recorded value
  ASSERT_EQ(m.violations(), 1u);
  const auto ev = m.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_STREQ(ev[0].invariant, "vote-consistency");
  EXPECT_EQ(ev[0].site, 2u);
}

TEST(ObsInvariants, EpochRegressionIsCaught) {
  obs::InvariantMonitor m;
  m.note_epoch(3, 2, microseconds(1));
  m.note_epoch(3, 2, microseconds(2));  // equal is fine
  m.note_epoch(3, 1, microseconds(3));  // regression
  ASSERT_EQ(m.violations(), 1u);
  EXPECT_STREQ(m.events()[0].invariant, "epoch-monotonic");
}

TEST(ObsInvariants, DivergentOutcomesAcrossSitesAreCaught) {
  obs::InvariantMonitor m;
  const TxnId t{1, 9};
  m.note_decided(0, t, true, microseconds(1));
  m.note_decided(2, t, false, microseconds(2));
  ASSERT_GE(m.violations(), 1u);
  EXPECT_STREQ(m.events()[0].invariant, "decision-consistency");
}

TEST(ObsInvariants, WalAndDecidedCacheMustAgree) {
  obs::InvariantMonitor m;
  const TxnId t{2, 5};
  m.note_wal_decision(1, t, true, microseconds(1));
  m.note_decided(1, t, false, microseconds(2));
  ASSERT_GE(m.violations(), 1u);
  bool saw = false;
  for (const auto& e : m.events())
    if (std::string(e.invariant) == "wal-decision-agreement") saw = true;
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Stall watchdog (unit level, synthetic gauges).
// ---------------------------------------------------------------------------

TEST(ObsWatchdog, TripsOncePerEpisodeAndRearmsOnProgress) {
  obs::StallWatchdog wd(milliseconds(50));
  std::uint64_t progress = 0, pending = 0;
  wd.add_probe("queue", 1, [&] { return progress; }, [&] { return pending; });

  // Idle (pending == 0): never trips, however long it sits.
  EXPECT_EQ(wd.scan(0), 0);
  EXPECT_EQ(wd.scan(seconds(10)), 0);

  // Work appears but progress freezes.
  pending = 3;
  EXPECT_EQ(wd.scan(seconds(10)), 0);  // first sighting arms the window
  EXPECT_EQ(wd.scan(seconds(10) + milliseconds(10)), 0);  // under threshold
  EXPECT_EQ(wd.scan(seconds(10) + milliseconds(60)), 1);  // trip
  EXPECT_EQ(wd.scan(seconds(10) + milliseconds(120)), 0);  // once per episode
  EXPECT_EQ(wd.trips(), 1u);
  const auto ev = wd.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].probe, "queue");
  EXPECT_EQ(ev[0].site, 1u);
  EXPECT_EQ(ev[0].pending, 3u);
  EXPECT_EQ(ev[0].stuck_since, seconds(10));

  // Progress resumes, then freezes again: a fresh episode trips again.
  progress = 1;
  EXPECT_EQ(wd.scan(seconds(11)), 0);                     // progress seen
  EXPECT_EQ(wd.scan(seconds(12)), 0);                     // re-armed
  EXPECT_EQ(wd.scan(seconds(12) + milliseconds(60)), 1);  // second trip
  EXPECT_EQ(wd.trips(), 2u);
}

TEST(ObsWatchdog, PlaneWiresTripsToCountersAndFlightDump) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{2, 32, milliseconds(50)});
  std::uint64_t pending = 1;
  plane.watchdog().add_probe("mailbox", 0, [] { return std::uint64_t{0}; },
                             [&] { return pending; });
  plane.watchdog().scan(0);                // baseline
  plane.watchdog().scan(milliseconds(10)); // arms the stall window
  EXPECT_EQ(plane.watchdog().scan(milliseconds(100)), 1);
  EXPECT_EQ(plane.slot(0).value(obs::Counter::kWatchdogTrips), 1u);
  EXPECT_EQ(plane.dumps(), 1u);
  EXPECT_EQ(plane.last_dump_reason(), "watchdog");
  EXPECT_NE(plane.last_dump().find("watchdog_trip"), std::string::npos);
  plane.watchdog().clear_probes();
}

// A real wedged live mailbox: one task blocks the consumer thread while more
// work queues behind it — the probe pair LiveCluster registers must see it.
TEST(ObsWatchdog, DetectsAWedgedLiveMailbox) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{1, 64, milliseconds(50)});
  live::Mailbox mb;
  plane.watchdog().add_probe(
      "mailbox", 0, [&] { return mb.executed(); },
      [&] {
        const std::uint64_t e = mb.executed();
        const std::uint64_t q = mb.posted();
        return q > e ? q - e : 0;
      });

  std::promise<void> unwedge;
  std::promise<void> wedged;
  std::thread consumer([&] { mb.run(); });
  mb.post([&] {
    wedged.set_value();
    unwedge.get_future().wait();
  });
  for (int i = 0; i < 3; ++i) mb.post([] {});
  wedged.get_future().wait();  // the consumer is now inside the stuck task

  plane.watchdog().scan(0);                // baseline
  plane.watchdog().scan(milliseconds(10)); // arms the stall window
  EXPECT_EQ(plane.watchdog().scan(milliseconds(100)), 1);
  EXPECT_GE(plane.dumps(), 1u);
  EXPECT_EQ(plane.last_dump_reason(), "watchdog");
  EXPECT_FALSE(plane.last_dump().empty());

  unwedge.set_value();
  plane.watchdog().clear_probes();
  mb.stop();
  consumer.join();
}

// ---------------------------------------------------------------------------
// End-to-end sim runs: zero false positives, and the seeded-sabotage
// mutation tests.
// ---------------------------------------------------------------------------

struct SimRun {
  explicit SimRun(core::ClusterConfig cfg, const std::string& protocol,
                  obs::ObsPlane* plane)
      : cluster((cfg.plane = plane, cfg), protocols::by_name(protocol)) {
    for (int i = 0; i < 12; ++i) {
      actors.push_back(std::make_unique<workload::ClientActor>(
          cluster, static_cast<SiteId>(i % cluster.sites()),
          workload::WorkloadSpec::A(0.8), metrics,
          mix64(31'000 + static_cast<std::uint64_t>(i))));
      actors.back()->start(i * microseconds(373));
    }
  }

  core::Cluster cluster;
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
};

core::ClusterConfig small_config() {
  core::ClusterConfig cfg;
  cfg.sites = 3;
  cfg.replication = 1;
  cfg.objects_per_site = 96;
  cfg.partitions_per_site = 2;
  cfg.seed = 7;
  return cfg;
}

TEST(ObsPlaneSim, FaultFreeRunHasNoViolationsTripsOrDumps) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{3});
  SimRun run(small_config(), "S-DUR", &plane);
  run.cluster.simulator().run_until(milliseconds(500));
  EXPECT_GT(run.metrics.committed(), 50u);
  EXPECT_EQ(plane.invariants().violations(), 0u);
  EXPECT_EQ(plane.watchdog().trips(), 0u);
  EXPECT_EQ(plane.dumps(), 0u);
  // Every histogram in the catalog is recorded, and msg_bytes sizes every
  // message the plane counts, client requests and replies included.
  const auto snap = plane.stats().snapshot(milliseconds(500));
  for (std::size_t h = 0; h < obs::kHistCount; ++h) {
    std::uint64_t samples = 0;
    for (std::uint64_t n : snap.hist[h]) samples += n;
    EXPECT_GT(samples, 0u) << obs::hist_name(static_cast<obs::Hist>(h));
    if (static_cast<obs::Hist>(h) == obs::Hist::kMsgBytes) {
      EXPECT_EQ(samples, plane.total(obs::Counter::kMsgsSent));
    }
  }
}

// Mutation test: a seeded vote equivocation (the wire vote contradicts the
// announced one) must trip vote-consistency — proof the monitor actually
// sees the protocol's votes and is not vacuously green.
TEST(ObsPlaneSim, SeededDoubleVoteTripsTheMonitor) {
  auto cfg = small_config();
  cfg.faults.double_vote(1, milliseconds(100));
  obs::ObsPlane plane(obs::ObsPlaneConfig{3});
  SimRun run(cfg, "GMU", &plane);
  run.cluster.simulator().run_until(seconds(1));

  ASSERT_GE(plane.invariants().violations(), 1u);
  bool saw = false;
  for (const auto& e : plane.invariants().events())
    if (std::string(e.invariant) == "vote-consistency" && e.site == 1)
      saw = true;
  EXPECT_TRUE(saw) << "expected a vote-consistency violation at site 1";
  EXPECT_GE(plane.dumps(), 1u);
  EXPECT_EQ(plane.last_dump_reason(), "invariant");
  EXPECT_NE(plane.last_dump().find("invariant_violation"), std::string::npos);
}

// No plane supplied: the cluster builds its own, so the online monitor is
// on in every run and catches the same seeded equivocation.
TEST(ObsPlaneSim, ClusterOwnedPlaneCatchesASeededDoubleVote) {
  auto cfg = small_config();
  cfg.faults.double_vote(1, milliseconds(100));
  SimRun run(cfg, "GMU", nullptr);
  run.cluster.simulator().run_until(seconds(1));

  obs::ObsPlane& plane = run.cluster.plane();
  EXPECT_GE(plane.invariants().violations(), 1u);
  EXPECT_EQ(plane.last_dump_reason(), "invariant");
  EXPECT_GT(plane.slot(1).value(obs::Counter::kVotesSent), 0u);
}

// Mutation test: a seeded epoch misreport after a real reconfiguration must
// trip epoch-monotonicity.
TEST(ObsPlaneSim, SeededEpochRegressionTripsTheMonitor) {
  core::ClusterConfig cfg;
  cfg.sites = 5;
  cfg.replication = 2;
  cfg.objects_per_site = 64;
  cfg.durable = true;
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  cfg.reconfig.start_with({0, 1, 2, 3}).join(4, milliseconds(600));
  cfg.faults.epoch_regress(2, milliseconds(900));

  obs::ObsPlane plane(obs::ObsPlaneConfig{5});
  SimRun run(cfg, "S-DUR", &plane);
  run.cluster.simulator().run_until(seconds(3));

  EXPECT_EQ(run.cluster.membership().latest_epoch(), 1u);
  ASSERT_GE(plane.invariants().violations(), 1u);
  bool saw = false;
  for (const auto& e : plane.invariants().events())
    if (std::string(e.invariant) == "epoch-monotonic" && e.site == 2)
      saw = true;
  EXPECT_TRUE(saw) << "expected an epoch-monotonic violation at site 2";
  EXPECT_GE(plane.dumps(), 1u);
}

// ---------------------------------------------------------------------------
// Plane snapshot exports (the shapes CI validates against the schema).
// ---------------------------------------------------------------------------

TEST(ObsPlaneSim, SnapshotJsonAndPrometheusCarryPlaneSections) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{3});
  SimRun run(small_config(), "RC", &plane);
  run.cluster.simulator().run_until(milliseconds(300));

  const std::string json = plane.snapshot_json(milliseconds(300));
  for (const char* key :
       {"\"watchdog\"", "\"invariants\"", "\"flight\"", "\"counters\"",
        "\"violations\": 0", "\"trips\": 0"})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;

  const std::string prom = plane.snapshot_prometheus(milliseconds(300));
  EXPECT_NE(prom.find("gdur_watchdog_trips_total 0"), std::string::npos);
  EXPECT_NE(prom.find("gdur_invariant_violations_total 0"), std::string::npos);
}

}  // namespace
}  // namespace gdur

// Per-transaction table retention (the unbounded-growth regression).
//
// A Replica keeps four per-transaction tables: term_ (termination state),
// paxos_acc_ (Paxos acceptor slots), decided_cache_ (outcome memos, FIFO
// capped) and commit_cbs_ (coordinator client callbacks). Before this PR, a
// group-commitment participant that certified a transaction but owned none
// of its writes left announce_vote() without ever reaching decide() — the
// votes flow to the write-set replicas — so its term_ entry (and the
// TxnRecord it pins) leaked for the rest of the run: steady linear growth
// on a perfectly healthy workload. The fix arms the existing straggler-GC
// timer on that early-leave path (announce_vote), and the same timer now
// also clears the Paxos acceptor slot.
//
// The soak below runs ~100k fault-free transactions and asserts the tables
// hold a steady state: the size after 100k transactions must not have grown
// materially over the size after 50k, and must stay far below the leak
// regime (one entry per certified-not-applied transaction).
//
// A term_ entry, with the TxnRecord it pins and the engine's tally,
// lives only until its transaction is decided and out of Q; the decided
// cache answers for it from then on, and only GC early leavers' flags and
// tallies wait for the GC. The DecisionReleasesTermState tests check that
// contract on every protocol, under DT and under chaos.
//
// A live site keeps its own copy of each record it sent or received in full,
// to resolve the votes, decisions and Paxos rounds the codec ships as an id,
// and drops it when the replica erases the term entry. The Live tests check
// that after real runs, and that a straggler reaching a site after the
// decision is answered from the decided cache rather than parked.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "harness/metrics.h"
#include "live/live_cluster.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur {
namespace {

struct TableSizes {
  std::size_t term = 0;
  std::size_t paxos = 0;
  std::size_t decided = 0;
  std::size_t commit_cbs = 0;
};

TableSizes sum_tables(core::Cluster& cl) {
  TableSizes s;
  for (SiteId i = 0; i < static_cast<SiteId>(cl.sites()); ++i) {
    const auto& r = cl.replica(i);
    s.term += r.term_table_size();
    s.paxos += r.paxos_table_size();
    s.decided += r.decided_cache_size();
    s.commit_cbs += r.commit_cb_count();
  }
  return s;
}

TEST(ReplicaRetention, HundredThousandTxnSoakHoldsSteadyStateTables) {
  // Group commitment with replication 2 on 4 sites: every update recruits
  // read-set certifiers that own none of the writes — exactly the
  // early-leave population that used to leak.
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.replication = 2;
  cfg.objects_per_site = 1024;
  core::Cluster cluster(cfg, protocols::by_name("P-Store"));
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (int i = 0; i < 48; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cfg.sites),
        workload::WorkloadSpec::B(0.5), metrics,
        mix64(23'000 + static_cast<std::uint64_t>(i))));
    actors.back()->start(i * microseconds(101));
  }

  auto txns_run = [&] {
    std::uint64_t n = 0;
    for (const auto& a : actors) n += a->txns_run();
    return n;
  };
  auto run_until_txns = [&](std::uint64_t target) {
    SimTime t = cluster.simulator().now();
    while (txns_run() < target) {
      t += seconds(1);
      cluster.simulator().run_until(t);
      ASSERT_LT(t, seconds(600)) << "soak failed to reach " << target
                                 << " transactions";
    }
  };

  run_until_txns(50'000);
  // Quiesce the 5s straggler-GC window before sampling so the snapshot is
  // the floor, not the in-flight population. Clients keep running; the
  // window's worth of fresh entries is included in the slack below.
  const TableSizes at50k = sum_tables(cluster);
  run_until_txns(100'000);
  const TableSizes at100k = sum_tables(cluster);
  const std::uint64_t total = txns_run();
  ASSERT_GE(total, 100'000u);

  // Steady state: the second half of the soak must not have grown the
  // termination tables. (A leak of even 10% of the ~50k second-half
  // transactions across read-only participants would add thousands of
  // entries.) The tables float with the 5s GC window × decision rate, so
  // allow generous slack around the 50k snapshot rather than demanding an
  // exact match.
  EXPECT_LE(at100k.term, at50k.term + at50k.term / 2 + 200)
      << "term_ grew across the soak: 50k=" << at50k.term
      << " 100k=" << at100k.term;
  // The leak regime is one pinned entry per no-local-writes certifier —
  // a large fraction of all transactions. Steady state is bounded by the
  // GC window's in-flight population.
  EXPECT_LT(at100k.term, total / 4)
      << "term_ holds " << at100k.term << " entries after " << total
      << " transactions — linear retention, not a steady state";
  // No Paxos in this protocol: the acceptor table must stay empty.
  EXPECT_EQ(at100k.paxos, 0u);
  // Every submitted transaction decides at its coordinator, which clears
  // the client-callback slot; at most the in-flight population remains.
  EXPECT_LE(at100k.commit_cbs, actors.size());
  // The decided cache is FIFO-capped by construction.
  EXPECT_LE(at100k.decided,
            static_cast<std::size_t>(cfg.sites) * 200'000u);
}

TEST(ReplicaRetention, PaxosAcceptorSlotsClearedByTermGc) {
  // Paxos Commit on 8 sites with replication 2: a transaction's certifying
  // replicas cover a strict subset of the cluster, so the remaining sites
  // act as PURE acceptors — they accept a phase-2a proposal for every
  // transaction but never certify, apply, or decide it, and so never hit
  // decide(), the path that arms the straggler GC everywhere else. Before
  // this PR their acceptor slots were reclaimed only by the 100k FIFO cap:
  // one leaked map entry per transaction per acceptor, linear growth. Now
  // on_paxos_2a arms the straggler GC directly (and the GC no longer skips
  // the acceptor slot when there is no term state to erase alongside it).
  //
  // Steady state is the 5s GC window's in-flight population — it floats
  // with the decision rate but must NOT grow with transaction count, so the
  // regression assertion compares two snapshots a half-run apart.
  core::ClusterConfig cfg;
  cfg.sites = 8;
  cfg.replication = 2;
  cfg.objects_per_site = 512;
  core::Cluster cluster(cfg, protocols::by_name("P-Store+Paxos"));
  harness::Metrics metrics;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (int i = 0; i < 24; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cfg.sites),
        workload::WorkloadSpec::B(0.5), metrics,
        mix64(29'000 + static_cast<std::uint64_t>(i))));
    actors.back()->start(i * microseconds(113));
  }
  auto txns_run = [&] {
    std::uint64_t n = 0;
    for (const auto& a : actors) n += a->txns_run();
    return n;
  };
  cluster.simulator().run_until(seconds(15));
  const TableSizes mid = sum_tables(cluster);
  const std::uint64_t mid_txns = txns_run();
  cluster.simulator().run_until(seconds(30));
  const TableSizes end = sum_tables(cluster);
  const std::uint64_t txns = txns_run();
  ASSERT_GT(txns, 4'000u);
  ASSERT_GT(txns, mid_txns + 1'000u) << "second half ran no load";

  // No growth across the second half: the leak regime adds one entry per
  // transaction per pure acceptor (several thousand here), steady state
  // adds none.
  EXPECT_LE(end.paxos, mid.paxos + mid.paxos / 2 + 200)
      << "paxos_acc_ grew across the run: 15s=" << mid.paxos
      << " 30s=" << end.paxos << " after " << txns << " transactions";
  EXPECT_LE(end.term, mid.term + mid.term / 2 + 200)
      << "term_ grew across the run: 15s=" << mid.term
      << " 30s=" << end.term;
  // And the absolute level is the GC window, far below the leak regime of
  // roughly (acceptors per txn) x (transactions so far).
  EXPECT_LT(end.paxos, txns * 2)
      << "paxos_acc_ holds " << end.paxos << " entries after " << txns
      << " transactions";
  // The retained entries are a decided tail awaiting their GC timer, not a
  // stuck undecided population.
  std::size_t undecided = 0;
  for (SiteId i = 0; i < static_cast<SiteId>(cfg.sites); ++i) {
    const auto b = cluster.replica(i).term_breakdown();
    undecided += cluster.replica(i).term_table_size() - b.decided;
  }
  EXPECT_LT(undecided, 500u)
      << undecided << " term entries are still undecided at quiesce";
}

TEST(ReplicaRetention, PendingEventsDoNotGrowWithDecidedTransactions) {
  // Term-state GC is due 5 s after a decision, so none falls due in this
  // 2 s run. One timer per decided transaction per participant would leave
  // the event queue holding every decision of the run; the replica's single
  // GC sweep timer leaves the in-flight work and one timer per site.
  core::ClusterConfig cfg;
  cfg.sites = 3;
  cfg.objects_per_site = 10'000;
  cfg.seed = 5;
  core::Cluster cluster(cfg, protocols::by_name("P-Store"));
  harness::Metrics metrics;
  constexpr int kClients = 96;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (int i = 0; i < kClients; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cfg.sites),
        workload::WorkloadSpec::A(0.7), metrics,
        mix64(31'000 + static_cast<std::uint64_t>(i))));
    actors.back()->start(i * microseconds(97));
  }
  cluster.simulator().run_until(seconds(2));

  // The load is the decisions the replicas remember: each armed a
  // term-state GC erasure, and none is due yet.
  std::uint64_t decided = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s)
    decided += cluster.replica(s).decided_cache_size();
  // A bound on the in-flight population: a few events per client's open
  // transaction (messages, CPU jobs, its think time) and one GC timer per
  // site. Measured: 95 pending here, against 4,540 with one GC timer per
  // decision.
  const std::size_t bound = 4 * kClients;
  ASSERT_GT(decided, 4 * bound) << "too little load to tell the regimes apart";
  EXPECT_LT(cluster.simulator().pending(), bound)
      << cluster.simulator().pending() << " events pending after " << decided
      << " decisions";
}

// --- the decision releases the termination state ---------------------------

/// Drives one update transaction by hand: `coord` reads `r`, writes `w` and
/// commits. `rec` watches its record; `outcome` receives the answer.
void run_tracked(core::Cluster& cl, SiteId coord, ObjectId r, ObjectId w,
                 std::weak_ptr<const core::TxnRecord>& rec,
                 std::optional<bool>& outcome) {
  cl.begin(coord, [&cl, coord, r, w, &rec, &outcome](core::MutTxnPtr t) {
    rec = t;
    cl.read(coord, t, r, [&cl, coord, t, w, &outcome](bool ok) {
      if (!ok) {
        outcome = false;
        return;
      }
      cl.write(coord, t, w, [&cl, coord, t, &outcome] {
        cl.commit(coord, t, [&outcome](bool c) { outcome = c; });
      });
    });
  });
}

/// A run of `protocol` under `cfg` with 24 closed-loop clients, then the
/// retention contract at every replica: no decided term entry outside Q,
/// and every entry is queued work, a GC early leaver, or an open
/// transaction not delivered here yet. A fault-free run (2 s) also drives
/// one transaction per site by hand (begun at 0.3 s, reading and writing
/// objects its coordinator does not hold) and checks that its record is
/// freed once it is decided. Under chaos (3 s) a crash can lose a client's
/// answer, and the durable log's records hold the transactions they
/// replay, so that run checks the term entries only.
void expect_released_at_decision(const char* protocol,
                                 const core::ClusterConfig& cfg) {
  SCOPED_TRACE(protocol);
  const bool faults = !cfg.faults.empty();
  core::Cluster cluster(cfg, protocols::by_name(protocol));
  harness::Metrics metrics;
  constexpr std::size_t kClients = 24;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  for (std::size_t i = 0; i < kClients; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cfg.sites),
        workload::WorkloadSpec::A(0.7), metrics, mix64(37'000 + i)));
    actors.back()->start(static_cast<SimTime>(i) * microseconds(89));
  }
  const auto sites = static_cast<SiteId>(cfg.sites);
  std::vector<std::weak_ptr<const core::TxnRecord>> recs(sites);
  std::vector<std::optional<bool>> outcomes(sites);
  if (!faults) {
    cluster.simulator().run_until(milliseconds(300));
    const auto& part = cluster.partitioner();
    for (SiteId c = 0; c < sites; ++c)
      run_tracked(cluster, c, part.object_in_partition((c + 1) % sites, 7),
                  part.object_in_partition((c + 2) % sites, 11), recs[c],
                  outcomes[c]);
  }
  cluster.simulator().run_until(faults ? seconds(3) : seconds(2));
  EXPECT_GT(metrics.committed(), faults ? 100u : 500u);

  std::size_t decisions = 0;
  for (SiteId s = 0; s < sites; ++s) {
    const auto& rep = cluster.replica(s);
    const auto b = rep.term_breakdown();
    decisions += rep.decided_cache_size();
    EXPECT_EQ(b.decided_outside_q, 0u) << "site " << s;
    // Each client has at most one open transaction, with at most one entry
    // here outside Q (before its delivery, or a coordinator's after its
    // early leave); the hand-driven ones add one per site.
    EXPECT_LE(rep.term_table_size(), b.in_q + b.left_early + kClients + sites)
        << "site " << s << ": in_q " << b.in_q << ", early leavers "
        << b.left_early;
    // Fault-free, Q holds open transactions and decided ones waiting for
    // its head; under chaos it also holds transactions in doubt.
    if (!faults) {
      EXPECT_LE(b.in_q, kClients + sites) << "site " << s;
    }
  }
  EXPECT_GT(decisions, 10 * kClients);
  if (faults) return;
  for (SiteId c = 0; c < sites; ++c) {
    ASSERT_TRUE(outcomes[c].has_value()) << "hand-driven txn at " << c;
    EXPECT_TRUE(recs[c].expired())
        << "hand-driven txn at " << c << " still pinned after its decision";
  }
}

TEST(ReplicaRetention, DecisionReleasesTermStateOnEveryProtocol) {
  for (const char* p :
       {"RC", "Jessy2pc", "Walter", "GMU", "S-DUR", "Serrano", "P-Store"}) {
    core::ClusterConfig cfg;
    cfg.objects_per_site = 1'000;
    cfg.seed = 17;
    expect_released_at_decision(p, cfg);
  }
}

TEST(ReplicaRetention, DecisionReleasesTermStateUnderDt) {
  core::ClusterConfig cfg;
  cfg.replication = 2;
  cfg.objects_per_site = 1'000;
  cfg.seed = 19;
  expect_released_at_decision("P-Store", cfg);
}

TEST(ReplicaRetention, DecisionReleasesTermStateUnderChaos) {
  core::ClusterConfig cfg;
  cfg.replication = 2;
  cfg.objects_per_site = 1'000;
  cfg.seed = 23;
  cfg.durable = true;
  cfg.faults = sim::FaultPlan::chaos(cfg.sites, seconds(2), 1000);
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  expect_released_at_decision("P-Store", cfg);
}

// --- a live site's record map follows the term state -------------------------

using namespace std::chrono_literals;

/// Runs `fn` on site `s`'s mailbox thread and returns its result: the way to
/// read site-thread state while the cluster runs.
template <typename F>
auto on_site(live::LiveCluster& cl, SiteId s, F fn) {
  std::promise<decltype(fn())> p;
  auto f = p.get_future();
  cl.post(s, [&p, &fn] { p.set_value(fn()); });
  return f.get();
}

/// Polls `done` every 2 ms for up to `limit`; returns its last answer.
template <typename F>
bool poll_until(F done, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

/// A short closed-loop live run of `protocol` on 3 sites, drained and
/// stopped; then, at every site, the records held for id-only messages are
/// no more than the replica's term entries, and nothing is parked.
/// `delay_scale` > 0 spaces the links, so votes trail deliveries.
void expect_live_records_follow_term_state(const char* protocol,
                                           double delay_scale) {
  SCOPED_TRACE(protocol);
  constexpr int kSites = 3;
  live::LiveConfig lc;
  lc.base.sites = kSites;
  lc.base.objects_per_site = 1'000;
  lc.base.seed = 41;
  lc.delay_scale = delay_scale;
  live::LiveCluster cl(lc, protocols::by_name(protocol));
  // One Metrics per site: a client records on its site's thread.
  std::vector<harness::Metrics> metrics(kSites);
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  cl.start();
  for (int i = 0; i < 4 * kSites; ++i) {
    const auto site = static_cast<SiteId>(i % kSites);
    actors.push_back(std::make_unique<workload::ClientActor>(
        cl, site, workload::WorkloadSpec::A(0.7), metrics[site],
        mix64(43'000 + static_cast<std::uint64_t>(i))));
    actors.back()->start(cl.now());
  }
  std::this_thread::sleep_for(300ms);
  for (auto& a : actors) a->stop();
  const bool drained = poll_until(
      [&] {
        for (const auto& a : actors)
          if (!a->idle()) return false;
        return true;
      },
      5s);
  // Answers are in; let the last votes, decisions and acks land.
  std::this_thread::sleep_for(100ms);
  cl.stop();
  ASSERT_TRUE(drained) << "clients did not finish";

  std::uint64_t committed = 0;
  for (const auto& m : metrics) committed += m.committed();
  EXPECT_GT(committed, 20u);
  for (SiteId s = 0; s < kSites; ++s) {
    EXPECT_LE(cl.records_held(s), cl.replica(s).term_table_size())
        << "site " << s << " holds records its replica has released";
    EXPECT_EQ(cl.parked_count(s), 0u) << "site " << s;
  }
  EXPECT_EQ(cl.plane().invariants().violations(), 0u);
}

TEST(ReplicaRetention, LiveRecordsFollowTermStateOnEveryProtocol) {
  for (const char* p :
       {"RC", "Jessy2pc", "Walter", "GMU", "S-DUR", "Serrano", "P-Store"})
    expect_live_records_follow_term_state(p, 0.0);
  // Spaced links: votes and decisions trail the deliveries they follow on
  // other links, so they park until their record arrives.
  expect_live_records_follow_term_state("P-Store", 0.1);
}

// A retried vote and a duplicate decision reach the coordinator of a
// 2PC transaction after it decided and released the record. Both run with
// their decoded stubs and are answered from the decided cache: nothing is
// parked, and neither the record map nor the term table grows.
TEST(ReplicaRetention, LiveStragglersAfterReleaseAreAnsweredNotParked) {
  live::LiveConfig lc;
  lc.base.sites = 3;
  lc.base.objects_per_site = 1'000;
  live::LiveCluster cl(lc, protocols::by_name("Jessy2pc"));
  cl.start();
  // Coordinated at site 0, certified by sites 1 and 2.
  const auto& part = cl.partitioner();
  const ObjectId r = part.object_in_partition(1, 7);
  const ObjectId w1 = part.object_in_partition(1, 11);
  const ObjectId w2 = part.object_in_partition(2, 13);
  std::promise<std::pair<TxnId, bool>> answer;
  cl.begin(0, [&](core::MutTxnPtr t) {
    cl.read(0, t, r, [&, t](bool ok) {
      if (!ok) {
        answer.set_value({t->id, false});
        return;
      }
      cl.write(0, t, w1, [&, t] {
        cl.write(0, t, w2, [&, t] {
          cl.commit(0, t, [&, t](bool c) { answer.set_value({t->id, c}); });
        });
      });
    });
  });
  auto done = answer.get_future();
  ASSERT_EQ(done.wait_for(5s), std::future_status::ready);
  const auto [id, committed] = done.get();
  ASSERT_TRUE(committed);
  // Every participant decided and released its copy of the record.
  for (SiteId s = 1; s < 3; ++s)
    ASSERT_TRUE(poll_until(
        [&] {
          return on_site(cl, s, [&] {
            return cl.replica(s).known_outcome(id) != nullptr;
          });
        },
        5s))
        << "site " << s << " never decided";
  struct Held {
    std::size_t records, term, parked;
  };
  const auto held_at_0 = [&] {
    return on_site(cl, 0, [&] {
      return Held{cl.records_held(0), cl.replica(0).term_table_size(),
                  cl.parked_count(0)};
    });
  };
  const Held before = held_at_0();
  ASSERT_EQ(before.records, 0u) << "the coordinator still holds the record";

  // Site 1 repeats its (true) vote and answers with the outcome, in that
  // link's order: the decision first, so the vote's count marks both done.
  const auto votes_at_0 = [&] {
    return cl.plane().slot(0).value(obs::Counter::kVotesRecv);
  };
  const std::uint64_t votes_before = votes_at_0();
  cl.post(1, [&cl, id] {
    auto stub = std::make_shared<core::TxnRecord>();
    stub->id = id;
    cl.send(1, 0, net::DecisionMsg{stub, true});
    cl.send(1, 0, net::VoteMsg{stub, true});
  });
  const bool answered =
      poll_until([&] { return votes_at_0() > votes_before; }, 2s);
  const Held after = held_at_0();
  cl.stop();
  EXPECT_TRUE(answered) << "the straggler vote never ran";
  EXPECT_EQ(after.parked, 0u);
  EXPECT_EQ(after.records, before.records);
  EXPECT_EQ(after.term, before.term);
  EXPECT_EQ(cl.plane().invariants().violations(), 0u);
}

}  // namespace
}  // namespace gdur

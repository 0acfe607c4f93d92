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
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "harness/metrics.h"
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

  std::uint64_t decided = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s)
    decided += cluster.replica(s).term_breakdown().decided;
  // A bound on the in-flight population: a few events per client's open
  // transaction (messages, CPU jobs, its think time) and one GC timer per
  // site. Measured: 95 pending here, against 4,540 with one GC timer per
  // decision.
  const std::size_t bound = 4 * kClients;
  ASSERT_GT(decided, 4 * bound) << "too little load to tell the regimes apart";
  EXPECT_LT(cluster.simulator().pending(), bound)
      << cluster.simulator().pending() << " events pending after " << decided
      << " decided term entries";
}

}  // namespace
}  // namespace gdur

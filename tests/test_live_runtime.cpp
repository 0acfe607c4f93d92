// Unit tests for the live runtime building blocks (src/live/): mailbox
// FIFO semantics and mailbox timers, the transport's exactly-once
// FIFO-per-link delivery over real loopback TCP, emulated link delays, the
// wall-clock pacer's latency anchor, the stall watchdog over a live
// cluster, short end-to-end checker-verified runs, and the one-line
// `[WARN]`/`[ERROR]` format of the operator's stderr log (common/logging.h).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "harness/metrics.h"
#include "live/live_cluster.h"
#include "live/live_runner.h"
#include "live/live_transport.h"
#include "live/mailbox.h"
#include "live/pacer.h"
#include "obs/plane.h"
#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur::live {
namespace {

using namespace std::chrono_literals;

TEST(Mailbox, TasksRunInPostOrder) {
  Mailbox mb;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) mb.post([&order, i] { order.push_back(i); });
  mb.post([&mb] { mb.stop(); });
  mb.run();  // consumer on this thread; stop task ends it
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Mailbox, CrossThreadPostsAllExecuteFifoPerProducer) {
  Mailbox mb;
  std::thread consumer([&mb] { mb.run(); });
  constexpr int kProducers = 4, kPerProducer = 500;
  std::mutex mu;
  std::vector<std::vector<int>> seen(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, &mu, &seen, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        mb.post([&mu, &seen, p, i] {
          std::lock_guard lk(mu);
          seen[static_cast<std::size_t>(p)].push_back(i);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  // Drain: a sentinel posted after all producers joined runs after all
  // their tasks (single FIFO queue).
  std::atomic<bool> done{false};
  mb.post([&done] { done.store(true); });
  while (!done.load()) std::this_thread::sleep_for(1ms);
  mb.stop();
  consumer.join();
  EXPECT_EQ(mb.posted(), kProducers * kPerProducer + 1u);
  for (const auto& s : seen) {
    ASSERT_EQ(s.size(), static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i)
      EXPECT_EQ(s[static_cast<std::size_t>(i)], i);  // per-producer FIFO
  }
}

TEST(Mailbox, PostAfterStopIsDropped) {
  Mailbox mb;
  mb.stop();
  std::atomic<bool> ran{false};
  mb.post([&ran] { ran.store(true); });
  mb.run();  // returns immediately: already stopped
  EXPECT_FALSE(ran.load());
}

TEST(Mailbox, TimersFallDueInDeadlineOrderAndFifoOnTies) {
  Mailbox mb;
  std::vector<int> order;  // consumer thread only
  auto mark = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };
  // Armed out of deadline order; 10/11/12 share a deadline and must keep
  // their arming order.
  const auto t0 = Mailbox::Clock::now();
  mb.post_at(t0 + 40ms, mark(3));
  mb.post_at(t0 + 10ms, mark(10));
  mb.post_at(t0 + 10ms, mark(11));
  mb.post_at(t0 + 10ms, mark(12));
  mb.post_at(t0 + 25ms, mark(2));
  mb.post_at(t0 + 60ms, [&mb] { mb.stop(); });
  mb.run();  // consumer on this thread; the last timer ends it
  const std::vector<int> want{10, 11, 12, 2, 3};
  EXPECT_EQ(order, want);
}

TEST(Mailbox, TimerNeverFallsDueEarly) {
  Mailbox mb;
  const auto t0 = Mailbox::Clock::now();
  int early = 0;
  int fired = 0;
  for (int i = 0; i < 40; ++i) {
    const auto at = t0 + std::chrono::microseconds(500 * i + 37 * (i % 7));
    mb.post_at(at, [at, &early, &fired] {
      early += Mailbox::Clock::now() < at ? 1 : 0;
      ++fired;
    });
  }
  std::int64_t after_us = -1;
  mb.post_at(t0 + 20ms, [&] {
    after_us = std::chrono::duration_cast<std::chrono::microseconds>(
                   Mailbox::Clock::now() - t0)
                   .count();
    mb.stop();
  });
  mb.run();
  EXPECT_EQ(fired, 40);
  EXPECT_EQ(early, 0);
  EXPECT_GE(after_us, 20'000);
}

TEST(Mailbox, TimerArmedIntoAnIdleMailboxFires) {
  // The consumer blocks with nothing runnable and nothing armed; each timer
  // armed from this thread, 0-90 us out, must still fall due and run.
  Mailbox mb;
  std::thread consumer([&mb] { mb.run(); });
  std::atomic<int> fired{0};
  constexpr int kTimers = 100;
  for (int i = 0; i < kTimers; ++i) {
    std::this_thread::sleep_for(200us);  // let the consumer go idle again
    mb.post_at(Mailbox::Clock::now() + std::chrono::microseconds(10 * (i % 10)),
               [&fired] { fired.fetch_add(1); });
    const auto deadline = Mailbox::Clock::now() + 1s;
    while (fired.load() <= i && Mailbox::Clock::now() < deadline)
      std::this_thread::sleep_for(50us);
  }
  mb.stop();
  consumer.join();
  EXPECT_EQ(fired.load(), kTimers);
}

TEST(Mailbox, TimerArmedFromAnotherThreadWakesAWaitingConsumer) {
  // The consumer waits for a deadline 10 s out; a nearer timer armed from
  // another thread must end that wait, not fall due with the far one.
  Mailbox mb;
  mb.post_at(Mailbox::Clock::now() + 10s, [] {});
  std::thread consumer([&mb] { mb.run(); });
  std::this_thread::sleep_for(20ms);  // the consumer is waiting now
  std::atomic<bool> ran{false};
  const auto armed = Mailbox::Clock::now();
  std::thread armer([&mb, &ran] {
    mb.post_at(Mailbox::Clock::now() + 1ms, [&ran] { ran.store(true); });
  });
  armer.join();
  while (!ran.load() && Mailbox::Clock::now() < armed + 5s)
    std::this_thread::sleep_for(100us);
  EXPECT_TRUE(ran.load());
  mb.stop();
  consumer.join();
}

// The consumer waits for the earliest deadline with the lock released;
// timers armed meanwhile grow (and reallocate) the heap, and stop()
// discards it, so the wait must not hold on to the heap's storage (an
// AddressSanitizer build reports the dangling read).
TEST(Mailbox, ArmingWhileTheConsumerWaitsLeavesItsDeadlineIntact) {
  Mailbox mb;
  mb.post_at(Mailbox::Clock::now() + 10s, [] {});
  std::thread consumer([&mb] { mb.run(); });
  std::this_thread::sleep_for(10ms);  // the consumer is waiting now
  for (int i = 0; i < 1000; ++i)
    mb.post_at(Mailbox::Clock::now() + 20s, [] {});
  std::atomic<bool> ran{false};
  mb.post_at(Mailbox::Clock::now() + 1ms, [&ran] { ran.store(true); });
  const auto deadline = Mailbox::Clock::now() + 5s;
  while (!ran.load() && Mailbox::Clock::now() < deadline)
    std::this_thread::sleep_for(100us);
  EXPECT_TRUE(ran.load());
  mb.stop();
  consumer.join();
}

TEST(Mailbox, StopDiscardsArmedTimersWithoutWaiting) {
  Mailbox mb;
  std::thread consumer([&mb] { mb.run(); });
  auto probe = std::make_shared<int>(0);
  std::atomic<bool> ran{false};
  mb.post_at(Mailbox::Clock::now() + 10s, [probe, &ran] { ran.store(true); });
  const auto t0 = Mailbox::Clock::now();
  mb.stop();  // must not wait 10 s
  consumer.join();
  EXPECT_LT(Mailbox::Clock::now() - t0, 5s);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(probe.use_count(), 1) << "a discarded timer is destroyed";
  mb.post_at(Mailbox::Clock::now(), [probe] {});  // armed after stop: dropped
  EXPECT_EQ(probe.use_count(), 1);
  EXPECT_EQ(mb.posted(), mb.executed());
}

// An armed timer is not work: it enters posted(), executed() and the
// mailbox-task counter only when it falls due and runs, and is counted as a
// timer fire in the runtime slot when it falls due. So an idle site holding
// far-off timers reads zero pending to the watchdog.
TEST(Mailbox, TimerCountsAsWorkOnlyOnceItFallsDue) {
  obs::StatsSlot tasks;
  obs::StatsSlot timers;
  Mailbox mb;
  mb.set_stats(&tasks, &timers);
  std::atomic<bool> ran{false};
  mb.post_at(Mailbox::Clock::now() + 10s, [] {});  // like a term-state GC timer
  mb.post_at(Mailbox::Clock::now() + 30ms, [&ran] { ran.store(true); });
  EXPECT_EQ(mb.posted(), 0u);
  std::thread consumer([&mb] { mb.run(); });
  const auto deadline = Mailbox::Clock::now() + 5s;
  while (mb.executed() < 1 && Mailbox::Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(mb.posted(), 1u);
  EXPECT_EQ(mb.executed(), 1u);
  mb.stop();
  consumer.join();
  EXPECT_EQ(mb.posted(), 1u) << "the discarded far timer never became work";
  EXPECT_EQ(tasks.value(obs::Counter::kMailboxTasks), 1u);
  EXPECT_EQ(timers.value(obs::Counter::kTimerFires), 1u);
}

// The idle hook (the coalescing flush) runs whenever nothing is runnable,
// armed-but-not-due timers or not.
TEST(Mailbox, IdleHookRunsWhileOnlyFutureTimersAreArmed) {
  Mailbox mb;
  std::atomic<int> idles{0};
  mb.set_idle([&idles] { idles.fetch_add(1); });
  mb.post_at(Mailbox::Clock::now() + 10s, [] {});
  std::thread consumer([&mb] { mb.run(); });
  const auto deadline = Mailbox::Clock::now() + 5s;
  while (idles.load() < 1 && Mailbox::Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_GE(idles.load(), 1);
  mb.post([] {});
  while (idles.load() < 2 && Mailbox::Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_GE(idles.load(), 2) << "the hook runs again once the task is done";
  mb.stop();
  consumer.join();
}

// Transport fixture: N sites, every delivered frame recorded per link.
struct TransportRig {
  struct Rx {
    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> frames;
  };

  obs::ObsPlane plane;
  std::vector<std::vector<Rx>> rx;  // [src][dst]
  std::unique_ptr<LiveTransport> tp;

  explicit TransportRig(int sites)
      : plane(obs::ObsPlaneConfig{.sites = sites}) {
    rx.resize(static_cast<std::size_t>(sites));
    for (auto& row : rx) {
      // Rx holds a mutex; construct in place at full size.
      std::vector<Rx> tmp(static_cast<std::size_t>(sites));
      row.swap(tmp);
    }
    tp = std::make_unique<LiveTransport>(
        sites, kNoSite, std::vector<SiteEndpoint>{}, plane,
        [this](SiteId src, SiteId dst, std::vector<std::uint8_t> frame) {
          auto& slot = rx[src][dst];
          std::lock_guard lk(slot.mu);
          slot.frames.push_back(std::move(frame));
        });
    tp->start();
  }

  ~TransportRig() { tp->stop(); }

  std::size_t total_received() {
    std::size_t n = 0;
    for (auto& row : rx)
      for (auto& slot : row) {
        std::lock_guard lk(slot.mu);
        n += slot.frames.size();
      }
    return n;
  }
};

std::vector<std::uint8_t> numbered_frame(SiteId src, SiteId dst, int i) {
  return {static_cast<std::uint8_t>(src), static_cast<std::uint8_t>(dst),
          static_cast<std::uint8_t>(i & 0xff),
          static_cast<std::uint8_t>((i >> 8) & 0xff)};
}

TEST(LiveTransport, ExactlyOnceFifoPerLink) {
  constexpr int kSites = 3, kPerLink = 400;
  TransportRig rig(kSites);
  // Blast every ordered pair concurrently from per-site sender threads.
  std::vector<std::thread> senders;
  for (SiteId s = 0; s < kSites; ++s) {
    senders.emplace_back([&rig, s] {
      for (int i = 0; i < kPerLink; ++i)
        for (SiteId d = 0; d < kSites; ++d)
          if (d != s) rig.tp->send(s, d, numbered_frame(s, d, i));
    });
  }
  for (auto& t : senders) t.join();
  const std::size_t expect = kSites * (kSites - 1) * kPerLink;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rig.total_received() < expect &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  ASSERT_EQ(rig.total_received(), expect) << "lost or duplicated frames";
  std::uint64_t counted = 0;
  for (SiteId s = 0; s < kSites; ++s)
    counted += rig.plane.slot(s).value(obs::Counter::kMsgsSent);
  EXPECT_EQ(counted, expect);
  for (SiteId s = 0; s < kSites; ++s)
    for (SiteId d = 0; d < kSites; ++d) {
      if (d == s) continue;
      auto& slot = rig.rx[s][d];
      std::lock_guard lk(slot.mu);
      ASSERT_EQ(slot.frames.size(), static_cast<std::size_t>(kPerLink));
      for (int i = 0; i < kPerLink; ++i)
        EXPECT_EQ(slot.frames[static_cast<std::size_t>(i)],
                  numbered_frame(s, d, i))
            << "link " << int(s) << "->" << int(d) << " frame " << i;
    }
}

// End-to-end: a real (short) run over loopback TCP must be checker-clean.
// The heavier per-protocol sweep lives in test_live_equivalence.cpp.
TEST(LiveRunner, ShortLoopbackRunIsCheckerClean) {
  LiveRunConfig cfg;
  cfg.protocol = "P-Store";
  cfg.sites = 2;
  cfg.clients = 8;
  cfg.secs = 0.5;
  const auto r = run_live(cfg);
  EXPECT_TRUE(r.checker_ok) << r.checker_detail;
  EXPECT_GT(r.metrics.committed(), 0u);
  EXPECT_EQ(r.hung_clients, 0);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.throughput_tps, 0.0);
}

TEST(LiveRunner, OpenLoopRunIsCheckerClean) {
  LiveRunConfig cfg;
  cfg.protocol = "RC";
  cfg.sites = 2;
  cfg.secs = 0.5;
  cfg.open_loop_tps = 200;
  const auto r = run_live(cfg);
  EXPECT_TRUE(r.checker_ok) << r.checker_detail;
  EXPECT_GT(r.metrics.committed(), 0u);
  EXPECT_EQ(r.hung_clients, 0);
}

TEST(LiveRunner, OpenLoopOffersItsNominalRate) {
  // At 1,000 arrivals/s per site the mean gap is one timer-wheel tick; a
  // source that re-armed relative to each firing offered about half that.
  // Offered load, not commits, is asserted, and the transactions are single
  // local reads under RC, so a slow (sanitized) engine on a loaded host
  // neither fails the test nor leaves a backlog to drain.
  LiveRunConfig cfg;
  cfg.protocol = "RC";
  cfg.sites = 3;
  cfg.secs = 2.0;
  cfg.open_loop_tps = 3000;
  cfg.workload.read_only_ratio = 1.0;
  cfg.workload.ro_reads = 1;
  cfg.workload.locality = 1.0;
  const auto r = run_live(cfg);
  EXPECT_GE(static_cast<double>(r.offered),
            0.95 * cfg.open_loop_tps * r.wall_secs)
      << "offered " << r.offered << " in " << r.wall_secs << " s";
  EXPECT_TRUE(r.checker_ok) << r.checker_detail;
}

// Latency is timed from each arrival's intended time, so a stalled
// coordinator's backlog shows up as latency: one 50 ms stall of site 0's
// mailbox under 1k/s of single local reads. Timed from when the site
// thread got to each arrival instead, the stall vanished (max ~0.2 ms).
TEST(Pacer, CoordinatorStallShowsAsLatency) {
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 1024;
  LiveCluster cl(lc, protocols::rc());
  cl.start();
  workload::WorkloadSpec wl;
  wl.read_only_ratio = 1.0;
  wl.ro_reads = 1;
  wl.locality = 1.0;
  workload::Generator gen(wl, cl.partitioner(), 0, 7);
  harness::Metrics metrics;
  std::atomic<int> inflight{0};
  bool stalled = false;
  workload::ArrivalSchedule arrivals(1000, 9);
  const SimTime start = cl.now();
  arrivals.start(start);
  const auto paced = pace(
      arrivals, cl.epoch(), start + seconds(1), [] { return false; },
      [&](SimTime due) {
        if (!stalled && due >= start + milliseconds(500)) {
          stalled = true;
          cl.post(0, [] { std::this_thread::sleep_for(50ms); });
        }
        inflight.fetch_add(1);
        workload::run_transaction(
            cl, 0, std::make_shared<const workload::TxnProfile>(gen.next()),
            metrics, nullptr, [&inflight] { inflight.fetch_sub(1); }, due);
        return true;
      });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (inflight.load() > 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  cl.stop();
  ASSERT_EQ(inflight.load(), 0) << "transactions did not finish";
  ASSERT_TRUE(stalled);
  EXPECT_EQ(paced.shed, 0u);
  EXPECT_EQ(metrics.committed(), paced.issued);
  EXPECT_GE(metrics.txn_latency.max_ms(), 45.0);
}

/// Runs `left` transactions back to back from `site`, on its mailbox thread.
struct TxnChain : std::enable_shared_from_this<TxnChain> {
  TxnChain(core::Cluster& c, SiteId s, int n, std::atomic<int>& finished)
      : cl(c),
        site(s),
        left(n),
        done(finished),
        gen(workload::WorkloadSpec::A(0.5), c.partitioner(), s, 11 + s) {}

  void next() {
    if (left-- == 0) {
      done.fetch_add(1);
      return;
    }
    workload::run_transaction(
        cl, site, std::make_shared<workload::TxnProfile>(gen.next()), metrics,
        nullptr, [self = shared_from_this()] { self->next(); });
  }

  core::Cluster& cl;
  SiteId site;
  int left;
  std::atomic<int>& done;
  workload::Generator gen;
  harness::Metrics metrics;
};

// The vote observer sees a vote as it leaves its voter on both backends —
// Paxos Commit's 2a proposals included, which live mode used to skip.
TEST(LiveCluster, VoteObserverSeesEveryPaxos2aProposal) {
  constexpr int kSites = 3;
  LiveConfig lc;
  lc.base.sites = kSites;
  lc.base.objects_per_site = 1024;
  LiveCluster cl(lc, protocols::by_name("P-Store+Paxos"));
  std::atomic<std::uint64_t> observed{0};
  cl.set_vote_observer([&observed](const core::Cluster::VoteEvent&) {
    observed.fetch_add(1, std::memory_order_relaxed);
  });
  cl.start();
  std::atomic<int> done{0};
  std::vector<std::shared_ptr<TxnChain>> chains;
  for (SiteId s = 0; s < kSites; ++s) {
    chains.push_back(std::make_shared<TxnChain>(cl, s, 40, done));
    cl.post(s, [c = chains.back()] { c->next(); });
  }
  // Every acceptor counts the 2a proposals it takes in; the last ones may
  // still be landing after the last decision.
  const auto accepted = [&cl] {
    std::uint64_t n = 0;
    for (SiteId s = 0; s < kSites; ++s)
      n += cl.plane().slot(s).value(obs::Counter::kVotesRecv);
    return n;
  };
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while ((done.load() < kSites || accepted() != observed.load()) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  cl.stop();
  EXPECT_EQ(done.load(), kSites) << "transactions did not finish";
  EXPECT_GT(accepted(), 0u);
  EXPECT_EQ(observed.load(), accepted());
}

// A cluster built without a plane owns one, and its live frame and byte
// tallies are exactly that plane's per-site send counters.
TEST(LiveCluster, OwnedPlaneCountsEveryFrame) {
  constexpr int kSites = 3;
  LiveConfig lc;
  lc.base.sites = kSites;
  lc.base.objects_per_site = 1024;
  LiveCluster cl(lc, protocols::by_name("P-Store"));
  cl.start();
  std::atomic<int> done{0};
  std::vector<std::shared_ptr<TxnChain>> chains;
  for (SiteId s = 0; s < kSites; ++s) {
    chains.push_back(std::make_shared<TxnChain>(cl, s, 40, done));
    cl.post(s, [c = chains.back()] { c->next(); });
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (done.load() < kSites && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  cl.stop();
  ASSERT_EQ(done.load(), kSites) << "transactions did not finish";

  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    frames += cl.plane().slot(s).value(obs::Counter::kMsgsSent);
    bytes += cl.plane().slot(s).value(obs::Counter::kBytesSent);
  }
  EXPECT_GT(cl.live_messages(), 0u);
  EXPECT_GT(cl.live_bytes(), 0u);
  EXPECT_EQ(cl.live_messages(), frames);
  EXPECT_EQ(cl.live_bytes(), bytes);
}

// common/logging.h's contract: GDUR_WARN and GDUR_ERROR each print one line
// on stderr, `[WARN] msg` or `[ERROR] msg`, with the printf arguments
// formatted in; a message without arguments is printed as written.
TEST(Logging, WarnAndErrorPrintOneTaggedLineEach) {
  testing::internal::CaptureStderr();
  GDUR_WARN("front: dropping client conn=%d after bad frame type=%u", 7, 3u);
  GDUR_ERROR("%s failed: %s", "pipe()", "Too many open files");
  GDUR_WARN("queue at 100%");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] front: dropping client conn=7 after bad frame type=3\n"
            "[ERROR] pipe() failed: Too many open files\n"
            "[WARN] queue at 100%\n");
}

// A delayed link's frames wait on the destination's mailbox as timers: they
// keep the link's FIFO order and never arrive early. Each remote read from
// site 0 crosses the delayed 0->1 link and comes back on 1->0, so it
// completes no sooner than both delays after it was issued, and the reads
// complete in the order they were issued.
TEST(LiveCluster, DelayedLinkPreservesFifo) {
  constexpr int kReads = 50;
  constexpr double kScale = 0.25;  // 10-20 ms topology links -> 2.5-5 ms
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 64;
  lc.delay_scale = kScale;
  LiveCluster cl(lc, protocols::rc());
  const auto& topo = cl.transport().topology();
  const auto delay = [&](SiteId a, SiteId b) {
    return static_cast<SimDuration>(
        static_cast<double>(topo.latency(a, b)) * kScale);
  };
  const SimDuration round_trip = delay(0, 1) + delay(1, 0);
  ASSERT_GT(round_trip, milliseconds(1));
  ObjectId x = 0;
  while (!cl.partitioner().is_local(1, x)) ++x;
  cl.start();

  std::vector<int> order;           // site 0's thread only
  std::vector<SimDuration> took;    // likewise
  std::atomic<int> done{0};
  cl.begin(0, [&](core::MutTxnPtr t) {
    for (int i = 0; i < kReads; ++i) {
      const SimTime sent = cl.now();
      cl.remote_read(0, 1, t, x, [&, i, sent](bool) {
        order.push_back(i);
        took.push_back(cl.now() - sent);
        done.fetch_add(1);
      });
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (done.load() < kReads && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  cl.stop();
  ASSERT_EQ(done.load(), kReads) << "remote reads did not finish";
  for (int i = 0; i < kReads; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "read " << i;
    EXPECT_GE(took[static_cast<std::size_t>(i)], round_trip) << "read " << i;
  }
}

// Live mode is fault-free, in-memory and runs fixed membership: a setting
// it cannot honour is refused by name, not silently dropped.
TEST(LiveCluster, RefusesSettingsItCannotHonour) {
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 64;
  const auto refusal = [](const LiveConfig& c) -> std::string {
    try {
      LiveCluster cl(c, protocols::rc());
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  LiveConfig reconfig = lc;
  reconfig.base.reconfig.start_with({0, 1}).join(1, seconds(1));
  EXPECT_NE(refusal(reconfig).find("reconfig"), std::string::npos);
  LiveConfig faults = lc;
  faults.base.faults.drop_all(0.1);
  EXPECT_NE(refusal(faults).find("faults"), std::string::npos);
}

// A site thread wedged inside a task while its timers fall due trips the
// mailbox probe LiveCluster registers — and only that probe.
TEST(LiveCluster, WedgedSiteWithDueTimersTripsTheMailboxProbe) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{2, 64, milliseconds(50)});
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 64;
  lc.base.plane = &plane;
  LiveCluster cl(lc, protocols::rc());
  cl.start();
  std::promise<void> unwedge;
  std::promise<void> wedged;
  std::atomic<int> fired{0};
  cl.post(0, [&] {
    wedged.set_value();
    unwedge.get_future().wait();
  });
  wedged.get_future().wait();
  for (int i = 0; i < 3; ++i)
    cl.run_after(0, milliseconds(1), [&fired] { fired.fetch_add(1); });
  std::this_thread::sleep_for(10ms);  // the timers are due now

  auto& wd = plane.watchdog();
  wd.scan(0);                 // baseline
  wd.scan(milliseconds(10));  // arms the stall window
  EXPECT_EQ(wd.scan(milliseconds(100)), 1);
  const auto ev = wd.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].probe, "mailbox");
  EXPECT_EQ(ev[0].site, 0u);

  unwedge.set_value();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired.load() < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  cl.stop();
  EXPECT_EQ(fired.load(), 3);
}

bool file_has_text(const std::string& path) {
  std::ifstream in(path);
  return in && in.peek() != std::ifstream::traits_type::eof();
}

/// Removes every file a PlaneAttendant writes under `prefix`.
void remove_attendant_files(const std::string& prefix) {
  for (const char* ext :
       {".json", ".prom", ".flight.txt", ".flight.trace.json"})
    std::remove((prefix + ext).c_str());
}

// The attendant gdur_site and run_live share: a site thread blocked past
// stall_after trips the watchdog once for the episode, and the trip's
// flight dump lands next to the snapshots.
TEST(PlaneAttendant, BlockedSiteThreadTripsOnceAndDumps) {
  const std::string prefix = testing::TempDir() + "attendant_blocked";
  remove_attendant_files(prefix);
  obs::ObsPlane plane(obs::ObsPlaneConfig{2, 64, milliseconds(100)});
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 64;
  lc.base.plane = &plane;
  LiveCluster cl(lc, protocols::rc());
  cl.start();
  PlaneAttendant attendant(cl, prefix, 0.05);
  std::promise<void> unwedge;
  cl.post(0, [f = unwedge.get_future().share()] { f.wait(); });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (plane.watchdog().trips() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  std::this_thread::sleep_for(300ms);  // 3 x stall_after more, same episode
  unwedge.set_value();
  attendant.finish();
  cl.stop();
  EXPECT_EQ(plane.watchdog().trips(), 1u);
  EXPECT_EQ(plane.dumps(), 1u);
  EXPECT_TRUE(file_has_text(prefix + ".flight.txt"));
  EXPECT_TRUE(file_has_text(prefix + ".json"));
  remove_attendant_files(prefix);
}

// After a burst of transactions every participant holds its term-state GC
// sweep timer, seconds out. That is not work: an idle cluster holding only
// such timers scans clean for 3 x stall_after.
TEST(PlaneAttendant, IdleClusterHoldingGcTimersNeverTrips) {
  constexpr int kSites = 3;
  obs::ObsPlane plane(obs::ObsPlaneConfig{kSites, 64, milliseconds(100)});
  LiveConfig lc;
  lc.base.sites = kSites;
  lc.base.objects_per_site = 1024;
  lc.base.plane = &plane;
  LiveCluster cl(lc, protocols::by_name("P-Store"));
  cl.start();
  std::atomic<int> done{0};
  std::vector<std::shared_ptr<TxnChain>> chains;
  for (SiteId s = 0; s < kSites; ++s) {
    chains.push_back(std::make_shared<TxnChain>(cl, s, 40, done));
    cl.post(s, [c = chains.back()] { c->next(); });
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (done.load() < kSites && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  ASSERT_EQ(done.load(), kSites) << "transactions did not finish";
  PlaneAttendant attendant(cl, "");
  std::this_thread::sleep_for(300ms);  // idle: the attendant keeps scanning
  attendant.finish();
  std::uint64_t committed = 0;
  for (SiteId s = 0; s < kSites; ++s)
    committed += plane.slot(s).value(obs::Counter::kTxnCommitted);
  cl.stop();
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(plane.watchdog().trips(), 0u);
  EXPECT_EQ(plane.dumps(), 0u);
}

}  // namespace
}  // namespace gdur::live

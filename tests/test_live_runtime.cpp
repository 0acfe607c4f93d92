// Unit tests for the live runtime building blocks (src/live/): mailbox
// FIFO semantics, timer-wheel ordering, the transport's exactly-once
// FIFO-per-link delivery over real loopback TCP, the wall-clock pacer's
// latency anchor, and short end-to-end checker-verified runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
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
#include "live/timer_wheel.h"
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

TEST(TimerWheel, FiresInDeadlineOrderAndFifoWithinSlot) {
  TimerWheel tw;
  tw.start();
  std::mutex mu;
  std::vector<int> order;
  auto mark = [&mu, &order](int id) {
    return [&mu, &order, id] {
      std::lock_guard lk(mu);
      order.push_back(id);
    };
  };
  // Scheduled out of deadline order; 10/11/12 share a slot and must keep
  // their scheduling order.
  tw.schedule_after(40ms, mark(3));
  tw.schedule_after(10ms, mark(10));
  tw.schedule_after(10ms, mark(11));
  tw.schedule_after(10ms, mark(12));
  tw.schedule_after(25ms, mark(2));
  std::this_thread::sleep_for(120ms);
  tw.stop();
  const std::vector<int> want{10, 11, 12, 2, 3};
  EXPECT_EQ(order, want);
  EXPECT_EQ(tw.scheduled(), 5u);
}

TEST(TimerWheel, NeverFiresEarly) {
  TimerWheel tw;
  tw.start();
  const auto t0 = TimerWheel::Clock::now();
  std::atomic<std::int64_t> fired_after_us{-1};
  tw.schedule_after(20ms, [&] {
    fired_after_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                             TimerWheel::Clock::now() - t0)
                             .count());
  });
  std::this_thread::sleep_for(80ms);
  tw.stop();
  ASSERT_GE(fired_after_us.load(), 0) << "timer never fired";
  EXPECT_GE(fired_after_us.load(), 20'000);
}

TEST(TimerWheel, TimerArmedIntoAnIdleWheelIsNotSkipped) {
  // The idle wheel thread wakes a little after a timer is armed. Arming
  // just before a tick boundary makes that wake-up land past it; the wheel
  // must still fire the timer's slot rather than jump over it (a skipped
  // slot comes round again only after a full 4,096-tick revolution).
  TimerWheel tw;
  const auto t0 = TimerWheel::Clock::now();
  tw.start();
  std::atomic<int> fired{0};
  constexpr int kTimers = 100;
  for (int i = 0; i < kTimers; ++i) {
    // Boundaries are t0 + k ms (give or take the start-up microseconds);
    // arm 0-90 us before one, each timer on an idle wheel.
    std::this_thread::sleep_until(t0 + std::chrono::milliseconds(3 * i + 3) -
                                  std::chrono::microseconds(10 * (i % 10)));
    tw.schedule_after(0ns, [&fired] { fired.fetch_add(1); });
    const auto deadline = TimerWheel::Clock::now() + 2ms;
    while (fired.load() <= i && TimerWheel::Clock::now() < deadline) {
    }
  }
  // Well short of the 4 s a skipped slot waits for its next revolution.
  const auto deadline = TimerWheel::Clock::now() + 1s;
  while (fired.load() < kTimers && TimerWheel::Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  tw.stop();
  EXPECT_EQ(fired.load(), kTimers);
}

TEST(TimerWheel, StopDiscardsPendingAndJoins) {
  TimerWheel tw;
  tw.start();
  std::atomic<bool> ran{false};
  tw.schedule_after(10s, [&ran] { ran.store(true); });
  tw.stop();  // must not wait 10 s
  EXPECT_FALSE(ran.load());
}

// Transport fixture: N sites, every delivered frame recorded per link.
struct TransportRig {
  struct Rx {
    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> frames;
  };

  TimerWheel wheel;
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
    wheel.start();
    tp = std::make_unique<LiveTransport>(
        sites, wheel, plane,
        [this](SiteId src, SiteId dst, std::vector<std::uint8_t> frame) {
          auto& slot = rx[src][dst];
          std::lock_guard lk(slot.mu);
          slot.frames.push_back(std::move(frame));
        });
    tp->start();
  }

  ~TransportRig() {
    tp->stop();
    wheel.stop();
  }

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

TEST(LiveTransport, DelayedLinkPreservesFifo) {
  constexpr int kSites = 2, kFrames = 50;
  TransportRig rig(kSites);
  rig.tp->set_link_delay(0, 1, 5ms);
  for (int i = 0; i < kFrames; ++i) rig.tp->send(0, 1, numbered_frame(0, 1, i));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rig.total_received() < kFrames &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  auto& slot = rig.rx[0][1];
  std::lock_guard lk(slot.mu);
  ASSERT_EQ(slot.frames.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i)
    EXPECT_EQ(slot.frames[static_cast<std::size_t>(i)],
              numbered_frame(0, 1, i));
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

// A live site thread runs no simulator, so its log lines carry no
// simulated timestamp — not the 0 s of the simulator every LiveCluster
// builds and never runs.
TEST(LiveCluster, SiteLogLinesAreNotStampedWithAnIdleSimulatorsTime) {
  LiveConfig lc;
  lc.base.sites = 2;
  lc.base.objects_per_site = 64;
  LiveCluster cl(lc, protocols::rc());
  cl.start();
  std::this_thread::sleep_for(100ms);
  std::atomic<bool> logged{false};
  testing::internal::CaptureStderr();
  cl.post(0, [&logged] {
    GDUR_WARN("live log clock probe");
    logged.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!logged.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  cl.stop();
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_NE(err.find("live log clock probe"), std::string::npos) << err;
  EXPECT_EQ(err.find("0.000000s"), std::string::npos) << err;
}

}  // namespace
}  // namespace gdur::live

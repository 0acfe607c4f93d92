// Tests for the group-communication primitives: the ordering contracts that
// the termination protocol builds on, checked over a comm::Port faked on a
// bare simulated Transport.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "comm/atomic_broadcast.h"
#include "comm/reliable_multicast.h"
#include "comm/skeen_multicast.h"
#include "common/rng.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/plane.h"
#include "sim/fault.h"

namespace gdur::comm {
namespace {

using net::McastMsg;

/// Every message is charged its analytic size on the simulated network and
/// handed, on arrival, to the primitive the port serves.
class TransportPort final : public Port {
 public:
  TransportPort(net::Transport& net, obs::ObsPlane& plane)
      : net_(net), plane_(plane) {}

  template <class Prim>
  void serve(Prim& p) {
    receive_ = [&p](SiteId from, SiteId at, const net::Msg& m) {
      std::visit(
          [&](const auto& x) {
            if constexpr (Handles<Prim, std::decay_t<decltype(x)>>)
              p.on(from, at, x);
          },
          m);
    };
  }

  void send(SiteId from, SiteId to, net::Msg m) override {
    const std::uint64_t bytes = net::wire_size(m, 0);
    const obs::MsgClass cls = net::msg_class(m);
    net_.send(
        from, to, bytes,
        [this, from, to, m = std::move(m)] { receive_(from, to, m); }, cls);
  }
  void run_after(SiteId /*at*/, SimDuration delay, Task fn) override {
    net_.simulator().after(delay, std::move(fn));
  }
  [[nodiscard]] bool site_down(SiteId s) const override {
    return net_.cpu(s).down_at(net_.simulator().now());
  }
  [[nodiscard]] bool recovery_enabled() const override {
    return net_.fault_injector() != nullptr;
  }
  [[nodiscard]] obs::ObsPlane& plane() const override { return plane_; }
  [[nodiscard]] SimTime now() const override { return net_.simulator().now(); }

 private:
  net::Transport& net_;
  obs::ObsPlane& plane_;
  std::function<void(SiteId, SiteId, const net::Msg&)> receive_;
};

struct Fixture {
  explicit Fixture(int n)
      : sites(n),
        plane(obs::ObsPlaneConfig{.sites = n}),
        net(sim, net::Topology::geo(n, milliseconds(10), milliseconds(20), 5),
            plane),
        port(net, plane) {}

  McastMsg msg(std::uint64_t id, SiteId origin, std::vector<SiteId> dests,
               std::uint64_t bytes = 100) {
    return McastMsg{
        .id = id, .origin = origin, .dests = std::move(dests), .bytes = bytes};
  }

  int sites;
  obs::ObsPlane plane;
  sim::Simulator sim;
  net::Transport net;
  TransportPort port;
  std::map<SiteId, std::vector<std::uint64_t>> delivered;
};

TEST(ReliableMulticast, DeliversToAllDestinations) {
  Fixture f(4);
  ReliableMulticast rm(f.port, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(rm);
  f.sim.at(0, [&] { rm.multicast(f.msg(1, 0, {1, 2, 3})); });
  f.sim.run();
  for (SiteId s : {1u, 2u, 3u}) {
    ASSERT_EQ(f.delivered[s].size(), 1u) << "site " << s;
    EXPECT_EQ(f.delivered[s][0], 1u);
  }
  EXPECT_TRUE(f.delivered[0].empty());
}

TEST(ReliableMulticast, SelfDeliveryWorks) {
  Fixture f(2);
  ReliableMulticast rm(f.port, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(rm);
  f.sim.at(0, [&] { rm.multicast(f.msg(7, 0, {0, 1})); });
  f.sim.run();
  EXPECT_EQ(f.delivered[0].size(), 1u);
  EXPECT_EQ(f.delivered[1].size(), 1u);
}

TEST(AtomicBroadcast, EverySiteDeliversEverythingInTheSameOrder) {
  Fixture f(5);
  AtomicBroadcast ab(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(ab);
  // Several sites broadcast concurrently.
  Rng rng(17);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto origin = static_cast<SiteId>(rng.next_below(5));
    f.sim.at(static_cast<SimTime>(rng.next_below(30)) * milliseconds(1),
             [&f, &ab, i, origin] { ab.broadcast(f.msg(i, origin, {})); });
  }
  f.sim.run();
  ASSERT_EQ(f.delivered[0].size(), 40u);
  for (SiteId s = 1; s < 5; ++s) {
    EXPECT_EQ(f.delivered[s], f.delivered[0]) << "site " << s;
  }
}

TEST(AtomicBroadcast, ThreeMessageDelayLatency) {
  Fixture f(4);
  SimTime delivered_at = 0;
  AtomicBroadcast ab(f.port, f.sites, [&](SiteId at, const McastMsg&) {
    if (at == 3) delivered_at = f.sim.now();
  });
  f.port.serve(ab);
  f.sim.at(0, [&] { ab.broadcast(f.msg(1, 1, {})); });
  f.sim.run();
  // origin->sequencer, sequencer->all, ack round: >= 2 one-way delays and
  // well under 5 (with 10-20ms links).
  EXPECT_GE(delivered_at, milliseconds(20));
  EXPECT_LE(delivered_at, milliseconds(80));
}

TEST(SkeenMulticast, TotalOrderPerDestinationGroup) {
  Fixture f(4);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  Rng rng(23);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto origin = static_cast<SiteId>(rng.next_below(4));
    f.sim.at(static_cast<SimTime>(rng.next_below(40)) * milliseconds(1),
             [&f, &sk, i, origin] { sk.multicast(f.msg(i, origin, {1, 2})); });
  }
  f.sim.run();
  ASSERT_EQ(f.delivered[1].size(), 50u);
  EXPECT_EQ(f.delivered[1], f.delivered[2]);
}

TEST(SkeenMulticast, PairwiseOrderOnOverlappingGroups) {
  // m1 -> {0,1,2}, m2 -> {1,2,3}: sites 1 and 2 must agree on the relative
  // order of m1 and m2.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Fixture f(4);
    SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
      f.delivered[at].push_back(m.id);
    });
    f.port.serve(sk);
    Rng rng(seed);
    for (std::uint64_t i = 0; i < 30; ++i) {
      const bool left = rng.next_bool(0.5);
      const auto origin = static_cast<SiteId>(rng.next_below(4));
      std::vector<SiteId> dests =
          left ? std::vector<SiteId>{0, 1, 2} : std::vector<SiteId>{1, 2, 3};
      f.sim.at(static_cast<SimTime>(rng.next_below(25)) * milliseconds(1),
               [&f, &sk, i, origin, dests] {
                 f.msg(i, origin, dests);
                 sk.multicast(f.msg(i, origin, dests));
               });
    }
    f.sim.run();
    // Project each site's order onto the common messages.
    const auto common = [&](SiteId s) {
      std::vector<std::uint64_t> out;
      for (auto id : f.delivered[s])
        if (std::find(f.delivered[1].begin(), f.delivered[1].end(), id) !=
                f.delivered[1].end() &&
            std::find(f.delivered[2].begin(), f.delivered[2].end(), id) !=
                f.delivered[2].end())
          out.push_back(id);
      return out;
    };
    EXPECT_EQ(common(1), common(2)) << "seed " << seed;
  }
}

TEST(SkeenMulticast, GenuinenessOnlyDestinationsWork) {
  Fixture f(4);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  f.sim.at(0, [&] { sk.multicast(f.msg(1, 0, {1, 2})); });
  f.sim.run();
  // Site 3 neither delivers nor does any CPU work.
  EXPECT_TRUE(f.delivered[3].empty());
  EXPECT_EQ(f.net.cpu(3).busy_time(), 0);
}

TEST(SkeenMulticast, SingleDestinationDelivers) {
  Fixture f(3);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  f.sim.at(0, [&] { sk.multicast(f.msg(9, 2, {0})); });
  f.sim.run();
  ASSERT_EQ(f.delivered[0].size(), 1u);
}

TEST(SkeenMulticast, OriginCanBeDestination) {
  Fixture f(3);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  f.sim.at(0, [&] { sk.multicast(f.msg(4, 1, {0, 1})); });
  f.sim.run();
  EXPECT_EQ(f.delivered[0].size(), 1u);
  EXPECT_EQ(f.delivered[1].size(), 1u);
}

TEST(SkeenMulticast, FaultTolerantModeStillOrdersButCostsMore) {
  SimTime fast_done = 0, ft_done = 0;
  {
    Fixture f(4);
    SkeenMulticast sk(f.port, f.sites, [&](SiteId, const McastMsg&) {
      fast_done = f.sim.now();
    });
    f.port.serve(sk);
    f.sim.at(0, [&] { sk.multicast(f.msg(1, 0, {1, 2})); });
    f.sim.run();
  }
  {
    Fixture f(4);
    SkeenMulticast sk(
        f.port, f.sites, [&](SiteId, const McastMsg&) { ft_done = f.sim.now(); },
        /*fault_tolerant=*/true);
    f.port.serve(sk);
    f.sim.at(0, [&] { sk.multicast(f.msg(1, 0, {1, 2})); });
    f.sim.run();
  }
  // FT adds two witness round trips: at least 4 extra one-way delays.
  EXPECT_GT(ft_done, fast_done + milliseconds(35));
}

TEST(SkeenMulticast, FaultTolerantTotalOrderHolds) {
  Fixture f(4);
  SkeenMulticast sk(
      f.port, f.sites,
      [&](SiteId at, const McastMsg& m) { f.delivered[at].push_back(m.id); },
      /*fault_tolerant=*/true);
  f.port.serve(sk);
  Rng rng(31);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto origin = static_cast<SiteId>(rng.next_below(4));
    f.sim.at(static_cast<SimTime>(rng.next_below(20)) * milliseconds(1),
             [&f, &sk, i, origin] { sk.multicast(f.msg(i, origin, {0, 3})); });
  }
  f.sim.run();
  ASSERT_EQ(f.delivered[0].size(), 30u);
  EXPECT_EQ(f.delivered[0], f.delivered[3]);
}

TEST(SkeenMulticast, MessageComplexityIsQuadraticInDests) {
  Fixture f(8);
  SkeenMulticast sk(f.port, f.sites, [](SiteId, const McastMsg&) {});
  f.port.serve(sk);
  f.sim.at(0, [&] {
    sk.multicast(f.msg(1, 0, {1, 2, 3, 4}));
  });
  f.sim.run();
  // step1: r, proposals: r*(r-1) cross-site -> total r^2 messages overall.
  const auto r = 4u;
  EXPECT_GE(f.net.messages_sent(), r + r * (r - 1));
  EXPECT_LE(f.net.messages_sent(), r + r * r);
}

TEST(SkeenMulticast, GroupProposersOrderForAllMembers) {
  // Two replica groups {0,1} and {2,3}; only the primaries (0 and 2)
  // propose, yet every member delivers, and members of both groups agree
  // on the order of common messages.
  Fixture f(4);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  Rng rng(41);
  for (std::uint64_t i = 0; i < 30; ++i) {
    auto m = f.msg(i, static_cast<SiteId>(rng.next_below(4)), {0, 1, 2, 3});
    m.proposers = {0, 2};
    f.sim.at(static_cast<SimTime>(rng.next_below(25)) * milliseconds(1),
             [&sk, m] { sk.multicast(m); });
  }
  f.sim.run();
  for (SiteId s = 0; s < 4; ++s)
    ASSERT_EQ(f.delivered[s].size(), 30u) << "site " << s;
  for (SiteId s = 1; s < 4; ++s) EXPECT_EQ(f.delivered[s], f.delivered[0]);
}

TEST(SkeenMulticast, NonProposerFailureDoesNotBlockOrdering) {
  // Member 1 of group {0,1} is down; since only 0 proposes, the other
  // destinations still deliver.
  Fixture f(4);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  f.net.pause_site(1, seconds(60));
  auto m = f.msg(1, 3, {0, 1, 2});
  m.proposers = {0, 2};
  f.sim.at(0, [&sk, m] { sk.multicast(m); });
  f.sim.run_until(seconds(1));
  EXPECT_EQ(f.delivered[0].size(), 1u);
  EXPECT_EQ(f.delivered[2].size(), 1u);
  EXPECT_TRUE(f.delivered[1].empty());  // down: delivery deferred
}

TEST(SkeenMulticast, ProposerFailureBlocksUntilRecovery) {
  // The flip side (the paper's §5.3 perfect-failure-detector caveat): a
  // failed *proposer* stalls the message until it comes back.
  Fixture f(4);
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  f.net.pause_site(0, milliseconds(500));
  auto m = f.msg(1, 3, {0, 1, 2});
  m.proposers = {0, 2};
  SimTime delivered_at_2 = 0;
  f.sim.at(0, [&sk, m] { sk.multicast(m); });
  f.sim.run_until(milliseconds(400));
  EXPECT_TRUE(f.delivered[2].empty());
  f.sim.run_until(seconds(2));
  ASSERT_EQ(f.delivered[2].size(), 1u);
  (void)delivered_at_2;
}

TEST(SkeenMulticast, CrashWindowLossesRecoverAndPreserveTotalOrder) {
  // The transport can lose an already-acknowledged message when FIFO
  // serialization (or a queued handler) pushes its delivery into a crash
  // window — by contract, "protocol retries must recover it". Before the
  // ordering layer grew its recovery path, a proposal lost this way wedged
  // every destination forever: delivery blocks behind the smallest-keyed
  // pending message, and that message could never finalize. Two crash
  // windows across a stream of multicasts must end with every message
  // delivered everywhere, in one total order.
  Fixture f(4);
  sim::FaultPlan plan;
  plan.crash(2, milliseconds(60), milliseconds(140));
  sim::FaultInjector fi(plan, 7);
  f.net.set_fault_injector(&fi);
  // The injector only answers the transport's queries; the CPU crash (state
  // loss, handler-epoch bump) is scheduled by the cluster in production and
  // by hand here.
  f.sim.at(milliseconds(60),
           [&] { f.net.cpu(2).crash_until(milliseconds(140)); });
  SkeenMulticast sk(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(sk);
  for (std::uint64_t i = 0; i < 40; ++i) {
    // 100 kB messages cost 1.5 ms to unmarshal, so the burst backs the
    // receive queue at site 2 up across the crash instant: the retransmit
    // layer sees a clean pre-crash arrival, but the handler runs after the
    // epoch bump and the message is lost after the transport-level ack.
    auto m = f.msg(i, 0, {0, 1, 2, 3}, /*bytes=*/100'000);
    m.proposers = {1, 2};
    f.sim.at(milliseconds(20) + static_cast<SimTime>(i) * microseconds(500),
             [&sk, m] { sk.multicast(m); });
  }
  f.sim.run_until(seconds(5));
  for (SiteId s = 0; s < 4; ++s)
    ASSERT_EQ(f.delivered[s].size(), 40u) << "site " << s << " wedged";
  for (SiteId s = 1; s < 4; ++s) EXPECT_EQ(f.delivered[s], f.delivered[0]);
}

TEST(AtomicBroadcast, SequencerOriginWorks) {
  Fixture f(3);
  AtomicBroadcast ab(f.port, f.sites, [&](SiteId at, const McastMsg& m) {
    f.delivered[at].push_back(m.id);
  });
  f.port.serve(ab);
  f.sim.at(0, [&] { ab.broadcast(f.msg(1, 0, {})); });  // origin == sequencer
  f.sim.run();
  for (SiteId s = 0; s < 3; ++s) EXPECT_EQ(f.delivered[s].size(), 1u);
}

}  // namespace
}  // namespace gdur::comm

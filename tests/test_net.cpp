// Unit tests for the network substrate: topology and transport semantics.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/plane.h"

namespace gdur::net {
namespace {

TEST(Topology, GeoLatenciesWithinEnvelopeAndSymmetric) {
  const auto t = Topology::geo(6, milliseconds(10), milliseconds(20), 9);
  for (SiteId i = 0; i < 6; ++i) {
    EXPECT_EQ(t.latency(i, i), 0);
    for (SiteId j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_GE(t.latency(i, j), milliseconds(10));
      EXPECT_LE(t.latency(i, j), milliseconds(20));
      EXPECT_EQ(t.latency(i, j), t.latency(j, i));
    }
  }
}

TEST(Topology, GeoIsDeterministicPerSeed) {
  const auto a = Topology::geo(4, milliseconds(10), milliseconds(20), 1);
  const auto b = Topology::geo(4, milliseconds(10), milliseconds(20), 1);
  const auto c = Topology::geo(4, milliseconds(10), milliseconds(20), 2);
  EXPECT_EQ(a.latency(0, 1), b.latency(0, 1));
  bool any_diff = false;
  for (SiteId i = 0; i < 4; ++i)
    for (SiteId j = 0; j < 4; ++j) any_diff |= a.latency(i, j) != c.latency(i, j);
  EXPECT_TRUE(any_diff);
}

TEST(Topology, UniformSetsOneLatency) {
  const auto t = Topology::uniform(3, milliseconds(5));
  EXPECT_EQ(t.latency(0, 1), milliseconds(5));
  EXPECT_EQ(t.latency(2, 1), milliseconds(5));
}

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : net_(sim_, Topology::uniform(4, milliseconds(10)), plane_) {
    net_.set_jitter(0.0);
  }
  obs::ObsPlane plane_{obs::ObsPlaneConfig{.sites = 4}};
  sim::Simulator sim_;
  Transport net_;
};

TEST_F(TransportTest, DeliversAfterLatencyPlusCpu) {
  SimTime delivered = 0;
  sim_.at(0, [&] { net_.send(0, 1, 0, [&] { delivered = sim_.now(); }); });
  sim_.run();
  const auto& c = net_.cost();
  EXPECT_EQ(delivered, c.msg_send + milliseconds(10) + c.msg_recv);
}

TEST_F(TransportTest, LoopbackSkipsNetworkButKeepsCpu) {
  SimTime delivered = 0;
  sim_.at(0, [&] { net_.send(2, 2, 0, [&] { delivered = sim_.now(); }); });
  sim_.run();
  EXPECT_EQ(delivered, net_.cost().msg_send + net_.cost().msg_recv);
}

TEST_F(TransportTest, LargerMessagesCostMoreCpuAndWire) {
  SimTime small = 0, large = 0;
  sim_.at(0, [&] { net_.send(0, 1, 100, [&] { small = sim_.now(); }); });
  sim_.run();
  sim_.at(sim_.now(), [&] {
    net_.send(2, 3, 1'000'000, [&] { large = sim_.now() - small; });
  });
  sim_.run();
  EXPECT_GT(large, milliseconds(10));  // transmission + marshaling dominate
}

TEST_F(TransportTest, FifoPerLink) {
  std::vector<int> order;
  sim_.at(0, [&] {
    net_.send(0, 1, 1'000'000, [&] { order.push_back(1); });  // slow (big)
    net_.send(0, 1, 10, [&] { order.push_back(2); });         // fast (small)
  });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // no overtaking on one link
}

TEST_F(TransportTest, DistinctLinksAreIndependent) {
  std::vector<int> order;
  sim_.at(0, [&] {
    net_.send(0, 1, 1'000'000, [&] { order.push_back(1); });
    net_.send(2, 1, 10, [&] { order.push_back(2); });
  });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(TransportTest, CountsMessagesAndBytes) {
  sim_.at(0, [&] {
    net_.send(0, 1, 100, [] {});
    net_.send(1, 2, 200, [] {});
  });
  sim_.run();
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(net_.bytes_sent(), 300u);
  net_.reset_accounting();
  EXPECT_EQ(net_.messages_sent(), 0u);
  // The window counts what follows the reset; the plane keeps every send.
  sim_.at(sim_.now(), [&] { net_.send(2, 3, 50, [] {}); });
  sim_.run();
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(net_.bytes_sent(), 50u);
  EXPECT_EQ(plane_.total(obs::Counter::kMsgsSent), 3u);
  EXPECT_EQ(plane_.total(obs::Counter::kBytesSent), 350u);
}

TEST_F(TransportTest, ClientRoundTripUsesClientLatency) {
  SimTime requested = 0, replied = 0;
  sim_.at(0, [&] {
    net_.client_send(0, 10, [&] {
      requested = sim_.now();
      net_.send_to_client(0, 10, [&] { replied = sim_.now(); });
    });
  });
  sim_.run();
  EXPECT_GE(requested, net_.topology().client_latency());
  EXPECT_LT(requested, milliseconds(1));
  EXPECT_GT(replied, requested);
}

TEST_F(TransportTest, SendChargesSenderCpu) {
  sim_.at(0, [&] { net_.send(0, 1, 1000, [] {}); });
  sim_.run();
  EXPECT_GT(net_.cpu(0).busy_time(), 0);
  EXPECT_GT(net_.cpu(1).busy_time(), 0);
  EXPECT_EQ(net_.cpu(2).busy_time(), 0);
}

TEST(TransportJitter, JitterPerturbsDelivery) {
  sim::Simulator sim;
  obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 2});
  Transport net(sim, Topology::uniform(2, milliseconds(10)), plane);
  net.set_jitter(0.05);
  std::vector<SimDuration> one_way;
  // Space messages far apart so neither link FIFO nor receive chaining
  // masks the per-message jitter.
  for (int i = 0; i < 20; ++i) {
    sim.at(i * milliseconds(100), [&, i] {
      const SimTime sent = sim.now();
      net.send(0, 1, 0, [&, sent] { one_way.push_back(sim.now() - sent); });
    });
  }
  sim.run();
  ASSERT_EQ(one_way.size(), 20u);
  bool uneven = false;
  for (std::size_t i = 1; i < one_way.size(); ++i)
    uneven |= one_way[i] != one_way[0];
  EXPECT_TRUE(uneven);
  for (const SimDuration d : one_way) {
    EXPECT_GE(d, milliseconds(9.4));   // 10ms - 5% - CPU costs
    EXPECT_LE(d, milliseconds(10.7));  // 10ms + 5% + CPU costs
  }
}

TEST(Wire, SizesAreMonotone) {
  EXPECT_GT(wire::read_reply(0), wire::read_request());
  EXPECT_GT(wire::read_reply(100), wire::read_reply(0));
  EXPECT_GT(wire::termination(2, 2, 0), wire::termination(1, 1, 0));
  EXPECT_GT(wire::termination(0, 1, 0), wire::kPayload);  // carries the value
}

}  // namespace
}  // namespace gdur::net

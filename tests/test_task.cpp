// Unit tests for gdur::Task and the simulator's slab of parked tasks.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/task.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/plane.h"
#include "sim/cpu.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace gdur {
namespace {

TEST(Task, SmallClosureIsStoredInline) {
  int ran = 0;
  auto small = [&ran] { ++ran; };
  static_assert(Task::fits_inline<decltype(small)>);
  Task t(small);
  t();
  Task moved = std::move(t);
  EXPECT_FALSE(t);  // NOLINT(bugprone-use-after-move): moved-from is empty
  moved();
  EXPECT_EQ(ran, 2);
}

TEST(Task, LargeClosureGoesToTheHeap) {
  std::array<std::uint64_t, 16> big{};
  big[15] = 7;
  std::uint64_t seen = 0;
  auto large = [big, &seen] { seen = big[15]; };
  static_assert(!Task::fits_inline<decltype(large)>);
  Task t(large);
  Task moved = std::move(t);
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(Task, DestroysItsClosureOnceOnEitherPath) {
  auto probe = std::make_shared<int>(0);
  {
    const std::array<char, 100> pad{};
    Task inline_task([probe] {});
    Task heap_task([probe, pad] { (void)pad; });
    EXPECT_EQ(probe.use_count(), 3);
    Task a = std::move(inline_task);
    Task b = std::move(heap_task);
    EXPECT_EQ(probe.use_count(), 3) << "a move relocates, never copies";
    a = std::move(b);
    EXPECT_EQ(probe.use_count(), 2) << "assignment destroys the old closure";
  }
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(Task, HoldsMoveOnlyState) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Task t([p = std::move(owned), &seen] { seen = *p + 1; });
  Task moved = std::move(t);
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorSlab, ParkedTaskRunsWhenScheduledOrCalled) {
  sim::Simulator sim;
  std::vector<int> order;
  const auto later = sim.park([&] { order.push_back(2); });
  const auto now = sim.park([&] { order.push_back(1); });
  sim.at(10, later);
  sim.at(5, [&] { sim.run_parked(now); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_processed(), 2u) << "run_parked is not an event";
  EXPECT_EQ(sim.now(), 10);
}

TEST(SimulatorSlab, DroppedTaskIsDestroyedUnrun) {
  sim::Simulator sim;
  auto probe = std::make_shared<int>(0);
  bool ran = false;
  const auto h = sim.park([probe, &ran] { ran = true; });
  EXPECT_EQ(probe.use_count(), 2);
  sim.drop(h);
  EXPECT_EQ(probe.use_count(), 1);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorSlab, EqualTimestampsRunFifoAcrossSlotReuse) {
  // The first 50 events free their slots at t=1; the free list hands them
  // back in reverse, so the last 50 events at t=100 sit in slots that are
  // lower, and descending, relative to the 50 scheduled before them.
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) sim.at(1, [] {});
  for (int i = 0; i < 50; ++i)
    sim.at(100, [&order, i] { order.push_back(i); });
  sim.run_until(1);
  for (int i = 50; i < 100; ++i)
    sim.at(100, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<int>(i));
}

TEST(SimulatorSlab, CpuCrashPathsDropTheirJobs) {
  sim::Simulator sim;
  sim::CpuResource cpu(sim, 1);
  auto probe = std::make_shared<int>(0);
  bool ran = false;
  sim.at(0, [&] {
    cpu.submit(milliseconds(1), [probe, &ran] { ran = true; });  // orphaned
    cpu.crash_until(milliseconds(10));
    cpu.submit(milliseconds(1), [probe, &ran] { ran = true; });  // refused
  });
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(probe.use_count(), 1) << "a lost job must be dropped";
}

/// Two sites 10 ms apart with a fault injector installed, so the transport
/// runs its crash-aware paths.
struct FaultyNet {
  explicit FaultyNet(sim::FaultPlan plan = {}, sim::CostModel cost = {})
      : faults(std::move(plan)),
        net(sim, net::Topology::uniform(2, milliseconds(10)), plane, cost) {
    net.set_fault_injector(&faults);
  }
  sim::Simulator sim;
  obs::ObsPlane plane{obs::ObsPlaneConfig{.sites = 2}};
  sim::FaultInjector faults;
  net::Transport net;
};

TEST(SimulatorSlab, TransportFaultPathsDropTheirHandlers) {
  auto probe = std::make_shared<int>(0);
  bool ran = false;
  {  // The delivery lands in the receiver's crash window.
    FaultyNet f;
    f.sim.at(0, [&] {
      f.net.send(0, 1, 100, [probe, &ran] { ran = true; });
    });
    f.sim.at(milliseconds(5),
             [&] { f.net.cpu(1).crash_until(milliseconds(100)); });
    f.sim.run();
    EXPECT_EQ(probe.use_count(), 1);
    EXPECT_EQ(f.plane.total(obs::Counter::kMsgsExpired), 1u);
  }
  {  // The receiver crashes while the handler waits for its receive charge.
    sim::CostModel slow_recv;
    slow_recv.msg_recv = milliseconds(5);
    FaultyNet f({}, slow_recv);
    f.sim.at(0, [&] {
      f.net.send(0, 1, 100, [probe, &ran] { ran = true; });
    });
    f.sim.at(milliseconds(12),
             [&] { f.net.cpu(1).crash_until(milliseconds(100)); });
    f.sim.run();
    EXPECT_EQ(probe.use_count(), 1);
    EXPECT_EQ(f.plane.total(obs::Counter::kMsgsExpired), 1u);
    EXPECT_EQ(f.plane.slot(1).value(obs::Counter::kMsgsExpired), 1u);
  }
  {  // The sender gives up on a dead link.
    sim::FaultPlan cut;
    cut.blackout(0, 1, 0, sim::kNever);
    cut.retransmit.give_up = milliseconds(50);
    FaultyNet f(cut);
    f.sim.at(0, [&] {
      f.net.send(0, 1, 100, [probe, &ran] { ran = true; });
    });
    f.sim.run();
    EXPECT_EQ(probe.use_count(), 1);
    EXPECT_EQ(f.plane.total(obs::Counter::kMsgsExpired), 1u);
  }
  {  // A reply is lost when its site crashes before the send is charged.
    sim::CostModel slow_send;
    slow_send.msg_send = milliseconds(5);
    FaultyNet f({}, slow_send);
    f.sim.at(0, [&] {
      f.net.send_to_client(0, 100, [probe, &ran] { ran = true; });
    });
    f.sim.at(milliseconds(1),
             [&] { f.net.cpu(0).crash_until(milliseconds(100)); });
    f.sim.run();
    EXPECT_EQ(probe.use_count(), 1);
  }
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace gdur

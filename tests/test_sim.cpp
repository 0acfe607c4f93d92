// Unit tests for the discrete-event simulator and the CPU model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu.h"
#include "sim/simulator.h"

namespace gdur::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, BreaksTiesByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(5, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(100, [&] { sim.after(50, [&] { seen = sim.now(); }); });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.after(1, chain);
  };
  sim.after(0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.at(10, [&] { ++ran; });
  sim.at(20, [&] { ++ran; });
  sim.at(30, [&] { ++ran; });
  EXPECT_TRUE(sim.run_until(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_TRUE(sim.run_until(100));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.now(), 100);  // clock advances even after queue drains
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int ran = 0;
  sim.at(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.at(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes with the remaining event
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Cpu, SingleCoreSerializesJobs) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  std::vector<SimTime> done;
  sim.at(0, [&] {
    cpu.submit(10, [&] { done.push_back(sim.now()); });
    cpu.submit(10, [&] { done.push_back(sim.now()); });
    cpu.submit(10, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(done, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Simulator sim;
  CpuResource cpu(sim, 2);
  std::vector<SimTime> done;
  sim.at(0, [&] {
    for (int i = 0; i < 4; ++i)
      cpu.submit(10, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  // Two cores: pairs finish at 10 and 20.
  EXPECT_EQ(done, (std::vector<SimTime>{10, 10, 20, 20}));
}

TEST(Cpu, IdleCoreStartsJobImmediately) {
  Simulator sim;
  CpuResource cpu(sim, 2);
  SimTime done = 0;
  sim.at(100, [&] { cpu.submit(5, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, 105);
}

TEST(Cpu, BusyTimeAccumulates) {
  Simulator sim;
  CpuResource cpu(sim, 4);
  sim.at(0, [&] {
    cpu.submit(10, [] {});
    cpu.submit(30, [] {});
  });
  sim.run();
  EXPECT_EQ(cpu.busy_time(), 40);
  EXPECT_NEAR(cpu.utilization(0, 100), 0.1, 1e-9);  // 40 / (4 cores * 100)
}

TEST(Cpu, UtilizationClampedToOne) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  sim.at(0, [&] { cpu.submit(1000, [] {}); });
  sim.run();
  EXPECT_DOUBLE_EQ(cpu.utilization(0, 10), 1.0);
}

TEST(Cpu, ResetAccountingClearsBusyTime) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  sim.at(0, [&] { cpu.submit(10, [] {}); });
  sim.run();
  cpu.reset_accounting();
  EXPECT_EQ(cpu.busy_time(), 0);
}

TEST(Cpu, ZeroServiceJobCompletesAtNow) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  SimTime done = -1;
  sim.at(7, [&] { cpu.submit(0, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, 7);
}

}  // namespace
}  // namespace gdur::sim

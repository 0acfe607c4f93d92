// Allocation budgets of the simulator's event path and of cluster
// construction.
//
// A counting global operator new (this binary only) measures the heap
// allocations one committed transaction costs in a fixed 3-site simulation.
// Every hop of a message or a CPU job used to wrap the previous closure in a
// new std::function; Task's inline buffer and the parked-task handles remove
// those, and this budget keeps them from coming back.
//
// It also counts the allocations made while one cluster is built. A figure
// bench builds a cluster per protocol and load point, so a member that
// allocates on construction (a default-constructed std::deque allocates a
// map and a node) shows up in every run's setup time.
//
// Sanitizer builds replace operator new themselves, so there the counter is
// left out and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "harness/metrics.h"
#include "obs/plane.h"
#include "protocols/protocols.h"
#include "workload/client.h"
#include "workload/workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GDUR_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GDUR_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef GDUR_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace gdur {
namespace {

/// Heap allocations per committed transaction over a 2 s simulated window
/// (after a 0.5 s warmup) of `protocol` on 3 sites with 96 closed-loop
/// clients.
double allocations_per_commit(const char* protocol) {
  core::ClusterConfig cc;
  cc.sites = 3;
  cc.objects_per_site = 10'000;
  cc.seed = 5;
  core::Cluster cluster(cc, protocols::by_name(protocol));
  harness::Metrics metrics;
  const workload::WorkloadSpec wl = workload::WorkloadSpec::A(0.7);
  std::vector<std::unique_ptr<workload::ClientActor>> clients;
  for (int i = 0; i < 96; ++i) {
    clients.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cc.sites), wl, metrics,
        mix64(cc.seed * 1'000'003 + static_cast<std::uint64_t>(i))));
    clients.back()->start(static_cast<SimTime>(i) * microseconds(97) %
                          milliseconds(25));
  }
  auto& sim = cluster.simulator();
  sim.run_until(milliseconds(500));
  metrics.reset();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim.run_until(milliseconds(2500));
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(metrics.committed(), 1000u) << protocol;
  const double per_commit =
      static_cast<double>(allocs) / static_cast<double>(metrics.committed());
  std::printf("%s: %.1f allocations per committed transaction\n", protocol,
              per_commit);
  return per_commit;
}

TEST(AllocationBudget, CommittedTransactionsStayUnderBudget) {
#ifdef GDUR_SANITIZED
  GTEST_SKIP() << "the sanitizer owns operator new";
#endif
  // Measured on gcc 12 / libstdc++: RC 41.1 and P-Store 81.2 per commit
  // (42.1 and 83.1 while every commit also copied its read and write sets
  // into an unread recency window), where closures nested in std::function
  // cost 87.1 and 158.3.
  EXPECT_LT(allocations_per_commit("RC"), 60.0);
  EXPECT_LT(allocations_per_commit("P-Store"), 110.0);
}

/// Heap allocations made while building one 4-site, rf 1 cluster of
/// `protocol` around a caller-supplied ObsPlane, as a figure bench does.
std::uint64_t construction_allocations(const char* protocol) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 4, .single_writer = true});
  core::ClusterConfig cc;
  cc.sites = 4;
  cc.replication = 1;
  cc.seed = 901;
  cc.plane = &plane;
  const auto spec = protocols::by_name(protocol);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto cluster = std::make_unique<core::Cluster>(cc, spec);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  std::printf("%s: %llu allocations to build the cluster\n", protocol,
              static_cast<unsigned long long>(allocs));
  return allocs;
}

TEST(AllocationBudget, ClusterConstructionStaysUnderBudget) {
#ifdef GDUR_SANITIZED
  GTEST_SKIP() << "the sanitizer owns operator new";
#endif
  // Measured on gcc 12 / libstdc++ (the unique_ptr's own allocation
  // included).
  for (const char* p : {"RC", "Serrano", "P-Store"})
    EXPECT_LE(construction_allocations(p), 69u) << p;
  for (const char* p : {"Jessy2pc", "Walter", "GMU", "S-DUR"})
    EXPECT_LE(construction_allocations(p), 74u) << p;
}

}  // namespace
}  // namespace gdur

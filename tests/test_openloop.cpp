// Tests for the open-loop (Poisson) load source.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocols/protocols.h"
#include "workload/client.h"

namespace gdur::workload {
namespace {

struct OpenRig {
  explicit OpenRig(double rate_per_site, SimDuration run_for,
                   const core::ProtocolSpec& spec = protocols::rc())
      : cluster(
            [] {
              core::ClusterConfig cfg;
              cfg.sites = 4;
              cfg.objects_per_site = 10'000;
              return cfg;
            }(),
            spec) {
    for (SiteId s = 0; s < 4; ++s) {
      sources.push_back(std::make_unique<OpenLoopSource>(
          cluster, s, WorkloadSpec::A(0.9), metrics, rate_per_site, 100 + s));
      sources.back()->start(0);
      sources.back()->stop_at(run_for);
    }
    cluster.simulator().run_until(run_for + seconds(2));
  }

  core::Cluster cluster;
  harness::Metrics metrics;
  std::vector<std::unique_ptr<OpenLoopSource>> sources;

  [[nodiscard]] std::uint64_t offered() const {
    std::uint64_t n = 0;
    for (const auto& s : sources) n += s->offered();
    return n;
  }
};

TEST(OpenLoop, OfferedRateMatchesConfiguredRate) {
  OpenRig rig(/*rate_per_site=*/500, seconds(4));
  // 4 sites x 500 tps x 4 s = 8000 expected arrivals, Poisson-distributed.
  EXPECT_NEAR(static_cast<double>(rig.offered()), 8000, 8000 * 0.08);
}

// Pins the simulator's open-loop schedule: arrival times, profiles and
// latency accounting reproduce the values the pre-ArrivalSchedule source
// produced, to the last bit.
TEST(OpenLoop, ScheduleIsPinned) {
  OpenRig rig(500, seconds(4));
  EXPECT_EQ(rig.offered(), 8067u);
  EXPECT_EQ(rig.metrics.committed(), 8067u);
  EXPECT_EQ(rig.metrics.aborted(), 0u);
  EXPECT_EQ(rig.metrics.txn_latency.mean_ms(), 43.204524061113176);
}

TEST(OpenLoop, AllOfferedTransactionsTerminate) {
  OpenRig rig(200, seconds(3));
  EXPECT_EQ(rig.metrics.committed() + rig.metrics.aborted(), rig.offered());
}

TEST(OpenLoop, UnderloadLatencyIsLoadIndependent) {
  OpenRig light(50, seconds(3));
  OpenRig moderate(400, seconds(3));
  EXPECT_NEAR(light.metrics.txn_latency.mean_ms(),
              moderate.metrics.txn_latency.mean_ms(), 5.0);
}

TEST(OpenLoop, OverloadInflatesLatency) {
  // 4 x 15k = 60k tps offered against a ~35k tps capacity for this
  // cluster: queues build and latency grows well past the underload value.
  OpenRig light(100, seconds(2));
  OpenRig overload(15'000, seconds(2));
  EXPECT_GT(overload.metrics.txn_latency.mean_ms(),
            light.metrics.txn_latency.mean_ms() * 1.5);
}

TEST(OpenLoop, ArrivalsAreIrregular) {
  // Poisson arrivals: offered counts differ across disjoint windows.
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.objects_per_site = 1000;
  core::Cluster cl(cfg, protocols::rc());
  harness::Metrics m;
  OpenLoopSource src(cl, 0, WorkloadSpec::A(0.9), m, 1000, 7);
  src.start(0);
  std::vector<std::uint64_t> counts;
  for (int w = 1; w <= 8; ++w) {
    cl.simulator().run_until(w * milliseconds(100));
    counts.push_back(src.offered());
  }
  std::vector<std::uint64_t> deltas;
  for (std::size_t i = 1; i < counts.size(); ++i)
    deltas.push_back(counts[i] - counts[i - 1]);
  bool uneven = false;
  for (const auto d : deltas) uneven |= d != deltas[0];
  EXPECT_TRUE(uneven);
}

}  // namespace
}  // namespace gdur::workload

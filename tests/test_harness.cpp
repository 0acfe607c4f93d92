// Tests for the experiment harness: metric math and run reproducibility.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "obs/plane.h"
#include "protocols/protocols.h"

namespace gdur::harness {
namespace {

TEST(LatencyStat, MeanAndCount) {
  LatencyStat s;
  s.add(milliseconds(10));
  s.add(milliseconds(20));
  s.add(milliseconds(30));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_NEAR(s.mean_ms(), 20.0, 1e-9);
  EXPECT_NEAR(s.max_ms(), 30.0, 1e-9);
}

TEST(LatencyStat, PercentilesAreOrderedAndApproximate) {
  LatencyStat s;
  for (int i = 1; i <= 1000; ++i) s.add(milliseconds(i));
  const double p50 = s.percentile_ms(0.5);
  const double p95 = s.percentile_ms(0.95);
  const double p99 = s.percentile_ms(0.99);
  EXPECT_LT(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 500, 500 * 0.08);  // log buckets: ~4-8% resolution
  EXPECT_NEAR(p99, 990, 990 * 0.08);
}

TEST(LatencyStat, EmptyStatIsZero) {
  LatencyStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean_ms(), 0.0);
  EXPECT_EQ(s.percentile_ms(0.99), 0.0);
}

TEST(LatencyStat, PercentileContractAtTheEdges) {
  // Contract: q <= 0 -> 0.0, q > 1 -> max_ms(), any q on empty -> 0.0.
  LatencyStat empty;
  EXPECT_EQ(empty.percentile_ms(-1.0), 0.0);
  EXPECT_EQ(empty.percentile_ms(0.0), 0.0);
  EXPECT_EQ(empty.percentile_ms(2.0), 0.0);

  LatencyStat s;
  for (int i = 1; i <= 100; ++i) s.add(milliseconds(i));
  EXPECT_EQ(s.percentile_ms(0.0), 0.0);
  EXPECT_EQ(s.percentile_ms(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.5), s.max_ms());
  EXPECT_DOUBLE_EQ(s.percentile_ms(100.0), s.max_ms());
  // q = 1 stays within the histogram (upper edge of the last sample's
  // bucket), never below the true maximum's bucket lower edge.
  EXPECT_GE(s.percentile_ms(1.0), s.percentile_ms(0.99));
  // A tiny-but-positive q targets the first sample, not zero.
  EXPECT_GT(s.percentile_ms(1e-9), 0.0);
  EXPECT_LE(s.percentile_ms(1e-9), s.percentile_ms(0.5));
}

TEST(LatencyStat, ResetClears) {
  LatencyStat s;
  s.add(milliseconds(5));
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Metrics, AbortRatios) {
  Metrics m;
  m.committed_ro = 70;
  m.committed_upd = 20;
  m.aborted_upd = 10;
  EXPECT_EQ(m.committed(), 90u);
  EXPECT_EQ(m.aborted(), 10u);
  EXPECT_NEAR(m.abort_ratio_pct(), 10.0, 1e-9);
  EXPECT_NEAR(m.upd_abort_ratio_pct(), 100.0 * 10 / 30, 1e-9);
}

TEST(Metrics, EmptyRatiosAreZero) {
  Metrics m;
  EXPECT_EQ(m.abort_ratio_pct(), 0.0);
  EXPECT_EQ(m.upd_abort_ratio_pct(), 0.0);
}

TEST(Experiment, DeterministicForSameSeed) {
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 32;
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(1);
  const auto a = run_experiment(protocols::jessy2pc(), cfg);
  const auto b = run_experiment(protocols::jessy2pc(), cfg);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.upd_term_latency_ms, b.upd_term_latency_ms);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 32;
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(1);
  cfg.seed = 1;
  const auto a = run_experiment(protocols::jessy2pc(), cfg);
  cfg.seed = 2;
  const auto b = run_experiment(protocols::jessy2pc(), cfg);
  EXPECT_NE(a.messages, b.messages);
}

TEST(Experiment, ThroughputScalesWithClientsBeforeSaturation) {
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 10'000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(1);
  cfg.clients = 32;
  const auto small = run_experiment(protocols::rc(), cfg);
  cfg.clients = 128;
  const auto big = run_experiment(protocols::rc(), cfg);
  EXPECT_GT(big.throughput_tps, small.throughput_tps * 3.0);
}

TEST(Experiment, SweepReturnsOnePointPerLoad) {
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.warmup = seconds(0.2);
  cfg.window = seconds(0.5);
  const auto rs = run_sweep(protocols::rc(), cfg, {8, 16, 32});
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].clients, 8);
  EXPECT_EQ(rs[2].clients, 32);
}

// The plane counts retransmits from t = 0; the result reports only the
// measured window's, leaving the warmup's out.
TEST(Experiment, RetransmitsAreCountedOverTheWindowOnly) {
  obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 4});
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.cluster.faults.drop_all(0.05);
  cfg.cluster.plane = &plane;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 16;
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(0.5);
  const auto r = run_experiment(protocols::rc(), cfg);
  EXPECT_GT(r.msgs_retransmitted, 0u);
  EXPECT_LT(r.msgs_retransmitted, plane.total(obs::Counter::kRetransmits));
}

TEST(Experiment, CpuUtilizationWithinBounds) {
  ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 64;
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(1);
  const auto r = run_experiment(protocols::walter(), cfg);
  EXPECT_GT(r.cpu_utilization, 0.0);
  EXPECT_LE(r.cpu_utilization, 1.0);
}

}  // namespace
}  // namespace gdur::harness

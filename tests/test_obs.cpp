// Tests for the observability layer (src/obs): determinism of the trace
// export, zero overhead when disabled, phase breakdowns, the abort-reason
// taxonomy, message-class counters, and the golden text timeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/experiment.h"
#include "obs/trace.h"
#include "protocols/protocols.h"

namespace gdur {
namespace {

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 32;
  cfg.warmup = seconds(0.2);
  cfg.window = seconds(0.6);
  cfg.seed = 11;
  return cfg;
}

TEST(Trace, TwoIdenticalRunsProduceByteIdenticalTraces) {
  auto cfg = small_config();
  std::string json[2], timeline[2];
  for (int i = 0; i < 2; ++i) {
    obs::TraceRecorder rec;
    cfg.cluster.trace = &rec;
    (void)harness::run_experiment(protocols::gmu(), cfg);
    json[i] = rec.chrome_trace_json();
    timeline[i] = rec.text_timeline();
  }
  ASSERT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(timeline[0], timeline[1]);
}

TEST(Trace, AttachingARecorderDoesNotChangeTheRun) {
  // The zero-overhead rule, observed end-to-end: a traced run must report
  // exactly the same results as a trace-free run.
  auto cfg = small_config();
  cfg.cluster.trace = nullptr;
  const auto off = harness::run_experiment(protocols::gmu(), cfg);

  obs::TraceRecorder rec;
  cfg.cluster.trace = &rec;
  const auto on = harness::run_experiment(protocols::gmu(), cfg);

  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.aborted, on.aborted);
  EXPECT_EQ(off.exec_failures, on.exec_failures);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_DOUBLE_EQ(off.throughput_tps, on.throughput_tps);
  EXPECT_DOUBLE_EQ(off.upd_term_latency_ms, on.upd_term_latency_ms);
  EXPECT_DOUBLE_EQ(off.txn_latency_ms, on.txn_latency_ms);
  EXPECT_DOUBLE_EQ(off.txn_latency_p99, on.txn_latency_p99);
  EXPECT_DOUBLE_EQ(off.cpu_utilization, on.cpu_utilization);
  EXPECT_EQ(off.aborts_by_reason, on.aborts_by_reason);
  EXPECT_DOUBLE_EQ(off.events_per_second, on.events_per_second);
  // The trace-free run has no phase data; the traced run does.
  EXPECT_FALSE(off.has_phase_breakdown());
  EXPECT_TRUE(on.has_phase_breakdown());
}

TEST(Trace, ChromeJsonShapeIsWellFormedEnough) {
  auto cfg = small_config();
  obs::TraceRecorder rec;
  cfg.cluster.trace = &rec;
  (void)harness::run_experiment(protocols::walter(), cfg);
  const std::string json = rec.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(Trace, EventCapCountsDropsInsteadOfGrowing) {
  auto cfg = small_config();
  obs::TraceConfig tcfg;
  tcfg.max_events = 64;
  obs::TraceRecorder rec(tcfg);
  cfg.cluster.trace = &rec;
  (void)harness::run_experiment(protocols::rc(), cfg);
  EXPECT_LE(rec.events().size(), 64u);
  EXPECT_GT(rec.dropped_events(), 0u);
}

TEST(Trace, MessageClassCountersSumToTransportTotal) {
  // Fault-free run: every message the transport counts passes through
  // exactly one class-tagged trace hook, so the per-class counters must
  // partition the transport's own total.
  auto cfg = small_config();
  obs::TraceConfig tcfg;
  tcfg.spans = false;  // counters only
  obs::TraceRecorder rec(tcfg);
  cfg.cluster.trace = &rec;
  const auto r = harness::run_experiment(protocols::gmu(), cfg);

  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < obs::kMsgClassCount; ++c)
    sum += rec.msg_count(static_cast<obs::MsgClass>(c));
  EXPECT_EQ(sum, r.messages);
  EXPECT_GT(rec.msg_count(obs::MsgClass::kClientReq), 0u);
  EXPECT_GT(rec.msg_count(obs::MsgClass::kClientResp), 0u);
  EXPECT_GT(rec.msg_count(obs::MsgClass::kTermination), 0u);
  EXPECT_GT(rec.msg_count(obs::MsgClass::kVote), 0u);
}

TEST(Trace, AbortTaxonomyPartitionsNonCommits) {
  // High contention: a tiny key space and an update-heavy mix produce
  // certification conflicts (and, for snapshot-based protocols, execution
  // failures). Every non-committed transaction lands in exactly one bucket.
  harness::ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 40;
  cfg.workload = workload::WorkloadSpec::A(0.1);
  cfg.clients = 64;
  cfg.warmup = seconds(0.2);
  cfg.window = seconds(0.8);
  cfg.seed = 5;
  const auto r = harness::run_experiment(protocols::gmu(), cfg);

  ASSERT_GT(r.aborted, 0u);
  std::uint64_t sum = 0;
  for (std::uint64_t n : r.aborts_by_reason) sum += n;
  EXPECT_EQ(sum, r.aborted + r.txns_timed_out);
  EXPECT_EQ(r.aborts_by_reason[static_cast<std::size_t>(
                obs::AbortReason::kNone)],
            0u);
  EXPECT_GT(r.aborts_by_reason[static_cast<std::size_t>(
                obs::AbortReason::kCertConflict)],
            0u);
  EXPECT_EQ(r.aborts_by_reason[static_cast<std::size_t>(
                obs::AbortReason::kSnapshotFailure)],
            r.exec_failures);
}

TEST(Trace, GmuTerminationCostIsCertificationDominated) {
  // The Figure 4 conclusion, re-derived from the measured breakdown instead
  // of plug-in ablation: under load, a GMU update transaction's termination
  // time is spent in the certification pipeline (queue wait + certification
  // + vote collection), not in multicast dissemination, apply work, or the
  // client response — i.e. certification, not versioning, is the
  // bottleneck.
  harness::ExperimentConfig cfg;
  cfg.cluster.sites = 4;
  cfg.cluster.objects_per_site = 10'000;
  cfg.workload = workload::WorkloadSpec::A(0.9);
  cfg.clients = 512;
  cfg.warmup = seconds(0.3);
  cfg.window = seconds(1);
  cfg.seed = 42;
  obs::TraceConfig tcfg;
  tcfg.spans = false;
  obs::TraceRecorder rec(tcfg);
  cfg.cluster.trace = &rec;
  const auto r = harness::run_experiment(protocols::gmu(), cfg);

  ASSERT_TRUE(r.has_phase_breakdown());
  const auto mean = [&r](obs::Phase p) {
    return r.phase_mean_ms[static_cast<std::size_t>(p)];
  };
  const double cert_pipeline = mean(obs::Phase::kCertWait) +
                               mean(obs::Phase::kCertify) +
                               mean(obs::Phase::kVoteCollect);
  const double rest = mean(obs::Phase::kXcast) + mean(obs::Phase::kApply) +
                      mean(obs::Phase::kClientResponse);
  EXPECT_GT(r.phase_count[static_cast<std::size_t>(obs::Phase::kCertify)], 0u);
  EXPECT_GT(cert_pipeline, rest);
}

// ---------------------------------------------------------------------------
// Golden text timeline. Regenerate with:
//   GDUR_REGEN_GOLDEN=1 ./build/tests/test_obs
//     --gtest_filter=Trace.TextTimelineMatchesGolden
// ---------------------------------------------------------------------------

TEST(Trace, TextTimelineMatchesGolden) {
  harness::ExperimentConfig cfg;
  cfg.cluster.sites = 3;
  cfg.cluster.objects_per_site = 1000;
  cfg.workload = workload::WorkloadSpec::A(0.5);
  cfg.clients = 6;
  cfg.warmup = seconds(0.1);
  cfg.window = seconds(0.25);
  cfg.seed = 7;
  obs::TraceRecorder rec;
  cfg.cluster.trace = &rec;
  (void)harness::run_experiment(protocols::gmu(), cfg);
  const std::string timeline = rec.text_timeline();
  ASSERT_FALSE(timeline.empty());

  const std::string path =
      std::string(GDUR_SOURCE_DIR) + "/tests/golden/timeline_small.txt";
  if (std::getenv("GDUR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << timeline;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(timeline, buf.str());
}

}  // namespace
}  // namespace gdur

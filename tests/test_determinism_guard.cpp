// Determinism guard: the simulator's behavior is pinned byte-for-byte.
//
// The live runtime carved a transport/scheduler seam out of core::Cluster /
// core::Replica; that refactor (and any future one) must not perturb sim
// event ordering. This test runs a fixed, trace-free workload for every
// paper protocol and fingerprints the observable execution with integers
// only (counts, event totals, FNV-1a hashes of txn outcomes and version
// installs), then compares the digest byte-for-byte against a golden file
// captured from the pre-seam tree.
//
// Beyond the seven fault-free rf 1 rows, tagged rows pin the paths those
// runs never reach: Paxos Commit and 2PC P-Store, disaster-tolerant
// placement (rf 2), seeded chaos with a durable WAL and timeouts, and a
// join/retire plan under loss, a partition and a crash. Those rows also
// print the timeout aborts, recoveries and invariant-monitor violations.
//
// A second golden holds rows that run past the 5 s term-state GC horizon
// (8-9 s: fault-free, DT, chaos with crashes and a WAL, join/retire), so
// the GC's erasures and re-queues are pinned too. Those rows also print the
// termination and Paxos acceptor table sizes at the end of the run. They
// leave out events=: how many simulator events carry the GC is not part of
// the behavior they pin.
//
// Regenerate (only when a change is *supposed* to alter sim behavior):
//   GDUR_UPDATE_GOLDEN=1 ./build/tests/test_determinism_guard
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checker/history.h"
#include "harness/metrics.h"
#include "protocols/protocols.h"
#include "sim/fault.h"
#include "workload/client.h"

namespace gdur {
namespace {

constexpr const char* kGoldenPath =
    GDUR_SOURCE_DIR "/tests/golden/sim_determinism.txt";
constexpr const char* kLongGoldenPath =
    GDUR_SOURCE_DIR "/tests/golden/sim_determinism_long.txt";

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

core::ClusterConfig base_config() {
  core::ClusterConfig cfg;
  cfg.sites = 3;
  cfg.replication = 1;
  cfg.objects_per_site = 96;
  cfg.partitions_per_site = 2;
  cfg.seed = 7;
  return cfg;
}

/// One digest row. `tag` empty = the original fault-free format; a tagged
/// row prefixes the tag and appends the fault-path counters. `long_row`
/// drops events= and appends the end-of-run table sizes.
std::string digest_run(const std::string& tag, const std::string& name,
                       const core::ClusterConfig& cfg, int clients,
                       SimTime window, bool long_row = false) {
  const auto spec = protocols::by_name(name);
  core::Cluster cluster(cfg, spec);
  harness::Metrics metrics;

  Fnv1a install_hash;
  std::uint64_t installs = 0;
  cluster.set_install_observer([&](const core::Cluster::InstallEvent& e) {
    ++installs;
    install_hash.add(e.obj);
    install_hash.add((static_cast<std::uint64_t>(e.writer.coord) << 44) ^
                     e.writer.seq);
    install_hash.add(e.pidx);
    install_hash.add(e.site);
    install_hash.add(static_cast<std::uint64_t>(e.time));
  });

  Fnv1a txn_hash;
  std::uint64_t outcomes = 0;
  std::vector<std::unique_ptr<workload::ClientActor>> actors;
  const auto wl = workload::WorkloadSpec::A(0.8);
  for (int i = 0; i < clients; ++i) {
    actors.push_back(std::make_unique<workload::ClientActor>(
        cluster, static_cast<SiteId>(i % cfg.sites), wl, metrics,
        mix64(9'000 + static_cast<std::uint64_t>(i))));
    actors.back()->set_observer(
        [&](const core::TxnRecord& t, bool committed) {
          ++outcomes;
          txn_hash.add((static_cast<std::uint64_t>(t.id.coord) << 44) ^
                       t.id.seq);
          txn_hash.add(committed ? 1 : 0);
          txn_hash.add(static_cast<std::uint64_t>(cluster.simulator().now()));
        });
    actors.back()->start(i * microseconds(373));
  }
  cluster.simulator().run_until(window);

  char events[40] = "";
  if (!long_row)
    std::snprintf(events, sizeof(events), " events=%llu",
                  static_cast<unsigned long long>(
                      cluster.simulator().events_processed()));
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s%s committed=%llu aborted=%llu exec_fail=%llu%s "
                "outcomes=%llu txn_hash=%016llx installs=%llu "
                "install_hash=%016llx",
                tag.c_str(), name.c_str(),
                static_cast<unsigned long long>(metrics.committed()),
                static_cast<unsigned long long>(metrics.aborted_ro +
                                                metrics.aborted_upd),
                static_cast<unsigned long long>(metrics.exec_failures),
                events, static_cast<unsigned long long>(outcomes),
                static_cast<unsigned long long>(txn_hash.value()),
                static_cast<unsigned long long>(installs),
                static_cast<unsigned long long>(install_hash.value()));
  if (tag.empty()) return line;
  std::uint64_t timeout_aborts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t term = 0;
  std::uint64_t paxos = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s) {
    timeout_aborts += cluster.replica(s).timeout_aborts();
    recoveries += cluster.replica(s).recoveries();
    term += cluster.replica(s).term_table_size();
    paxos += cluster.replica(s).paxos_table_size();
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                " timeout_aborts=%llu recoveries=%llu violations=%llu",
                static_cast<unsigned long long>(timeout_aborts),
                static_cast<unsigned long long>(recoveries),
                static_cast<unsigned long long>(
                    cluster.plane().invariants().violations()));
  std::string row = std::string(line) + tail;
  if (long_row)
    row += " term=" + std::to_string(term) + " paxos=" + std::to_string(paxos);
  return row;
}

std::string digest_protocol(const std::string& name) {
  return digest_run("", name, base_config(), 12, seconds(1));
}

/// Disaster-tolerant placement: every partition on two sites.
core::ClusterConfig dt_config() {
  auto cfg = base_config();
  cfg.sites = 4;
  cfg.replication = 2;
  cfg.objects_per_site = 64;
  return cfg;
}

/// DT placement under a seeded chaos plan, with the WAL and both timeouts.
core::ClusterConfig chaos_config() {
  auto cfg = dt_config();
  cfg.durable = true;
  cfg.faults = sim::FaultPlan::chaos(cfg.sites, seconds(3), 1000);
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  return cfg;
}

/// The join/retire plan of ReconfigChaos.JoinAndRetireMidRunSurviveThe-
/// FaultMatrix: site 4 joins, site 3 retires while partitioned away, site 1
/// crashes and recovers, and every link drops 5% of its messages.
core::ClusterConfig reconfig_config() {
  auto cfg = base_config();
  cfg.sites = 5;
  cfg.replication = 2;
  cfg.objects_per_site = 64;
  cfg.durable = true;
  cfg.term_timeout = milliseconds(500);
  cfg.client_timeout = seconds(2);
  cfg.reconfig.start_with({0, 1, 2, 3})
      .join(4, milliseconds(400))
      .retire(3, milliseconds(1200));
  cfg.faults.drop_all(0.05);
  cfg.faults.partition({{0, 1, 2, 4}, {3}}, milliseconds(1000),
                       milliseconds(1500));
  cfg.faults.crash(1, milliseconds(900), milliseconds(1400));
  return cfg;
}

std::string build_digest() {
  std::ostringstream out;
  for (const char* name :
       {"P-Store", "S-DUR", "GMU", "Serrano", "Walter", "Jessy2pc", "RC"})
    out << digest_protocol(name) << "\n";
  for (const char* name : {"P-Store+2PC", "P-Store+Paxos"})
    out << digest_run("ac/", name, base_config(), 12, seconds(1)) << "\n";
  for (const char* name :
       {"S-DUR", "P-Store", "Serrano", "Jessy2pc", "P-Store+Paxos"})
    out << digest_run("dt/", name, dt_config(), 24, seconds(2)) << "\n";
  for (const char* name : {"S-DUR", "Serrano", "Jessy2pc", "P-Store+Paxos"})
    out << digest_run("chaos/", name, chaos_config(), 24, seconds(4)) << "\n";
  for (const char* name : {"P-Store", "Jessy2pc", "P-Store+Paxos"})
    out << digest_run("reconfig/", name, reconfig_config(), 24, seconds(3))
        << "\n";
  return out.str();
}

/// Runs past the term-state GC horizon: decided transactions' state is
/// erased (or, while still queued, kept another 5 s) inside the window.
std::string build_long_digest() {
  std::ostringstream out;
  for (const char* name : {"P-Store", "Jessy2pc"})
    out << digest_run("long/", name, base_config(), 12, seconds(8), true)
        << "\n";
  out << digest_run("long/dt/", "Serrano", dt_config(), 24, seconds(8), true)
      << "\n";
  auto chaos = chaos_config();
  chaos.faults = sim::FaultPlan::chaos(chaos.sites, seconds(8), 1000);
  for (const char* name : {"Jessy2pc", "P-Store+Paxos"})
    out << digest_run("long/chaos/", name, chaos, 24, seconds(8), true)
        << "\n";
  out << digest_run("long/reconfig/", "P-Store", reconfig_config(), 24,
                    seconds(9), true)
      << "\n";
  return out.str();
}

/// Compares `digest` with the golden at `path`, or rewrites the golden
/// under GDUR_UPDATE_GOLDEN.
void expect_golden(const char* path, const std::string& digest) {
  if (std::getenv("GDUR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << digest;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden " << path
                        << " (run with GDUR_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), digest)
      << "simulator behavior diverged from the pre-PR baseline";
}

TEST(DeterminismGuard, SimRunsMatchPrePrBaseline) {
  expect_golden(kGoldenPath, build_digest());
}

TEST(DeterminismGuard, RunsPastTheGcHorizonMatchBaseline) {
  expect_golden(kLongGoldenPath, build_long_digest());
}

TEST(DeterminismGuard, DigestIsRunToRunStable) {
  EXPECT_EQ(build_digest(), build_digest());
}

}  // namespace
}  // namespace gdur

// YCSB-like transactional workloads (Table 3 of the paper).
//
//   Workload  Keys      Read-only txn   Update txn
//   A         Uniform   2 reads         1 read, 1 update
//   B         Uniform   4 reads         2 reads, 2 updates
//   C         Zipfian   2 reads         1 read, 1 update
//
// Transactions are *interactive* (keys are not known in advance — each
// operation is issued only after the previous one returns) and *global*
// (no single replica hosts every accessed object), matching §8.1. A
// locality fraction can relax globality for the Figure 5 experiment.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "store/partitioner.h"

namespace gdur::workload {

struct WorkloadSpec {
  std::string name = "A";
  bool zipfian = false;
  double zipf_theta = 0.99;
  int ro_reads = 2;
  int upd_reads = 1;
  int upd_writes = 1;
  double read_only_ratio = 0.9;
  /// Fraction of transactions whose keys all live at the coordinator's
  /// site (0 = the paper's default all-global setting; Figure 5 varies it).
  double locality = 0.0;

  static WorkloadSpec A(double read_only_ratio = 0.9);
  static WorkloadSpec B(double read_only_ratio = 0.9);
  static WorkloadSpec C(double read_only_ratio = 0.9);
};

/// One generated transaction profile.
struct TxnProfile {
  bool read_only = false;
  bool local = false;
  std::vector<ObjectId> reads;
  std::vector<ObjectId> writes;
};

/// Deterministic key/transaction generator for one client thread.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, const store::Partitioner& part,
            SiteId home_site, std::uint64_t seed);

  TxnProfile next();

 private:
  ObjectId next_key(bool local);
  void pick_distinct(std::vector<ObjectId>& out, int n, bool local);

  const WorkloadSpec spec_;
  const store::Partitioner& part_;
  SiteId home_;
  Rng rng_;
  ZipfianGenerator zipf_;
};

/// The one open-loop arrival process: Poisson arrivals on an absolute
/// schedule, in integer nanoseconds of whatever clock the driver keeps
/// (OpenLoopSource: simulated time; live::pace: wall time since an epoch).
/// Each due time is the previous one plus a seeded exponential gap of at
/// least 1 ns — never re-based on when an arrival was actually issued.
class ArrivalSchedule {
 public:
  ArrivalSchedule(double rate_tps, std::uint64_t seed)
      : rng_(seed), rate_(rate_tps) {}

  /// Puts the next arrival at `t` (the schedule's first due time).
  void start(SimTime t) { due_ = t; }
  /// When the next arrival is due.
  [[nodiscard]] SimTime due() const { return due_; }
  /// Moves past the arrival due now.
  void advance();

 private:
  Rng rng_;
  double rate_;
  SimTime due_ = 0;
};

}  // namespace gdur::workload

// History recording and consistency checking.
//
// A History collects every terminated transaction (from the client side)
// plus every version install (from the replica side) and can then verify
// the guarantees each protocol claims:
//
//   check_read_committed   every version read was written by a committed
//                          transaction (or is the initial version)
//   check_serializable     the direct serialization graph (wr, ww, rw
//                          edges) over committed transactions is acyclic
//                          — P-Store, S-DUR (SER)
//   check_update_serializable
//                          the DSG restricted to update transactions is
//                          acyclic, and every query reads a consistent
//                          (possibly stale) snapshot — GMU (US),
//                          and also implied by SER
//   check_ww_exclusion     no two time-overlapping committed transactions
//                          wrote the same object — SI / PSI / NMSI
//                          (Serrano, Walter, Jessy2pc)
//   check_consistent_snapshots
//                          no transaction observes a fractured snapshot:
//                          if T read x before W's write and W wrote both
//                          x and y, T must not read y from W or later
//
// The checks are deliberately conservative (they may accept a borderline
// history) but every violation they report is a real one.
//
// A recorded transaction is kept as a fixed-size TxnSummary (id, epoch,
// outcome, three timestamps) whose reads' (object, writer) pairs and write
// set are appended to two flat arrays: exactly what the checks read, and no
// heap allocation per transaction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/transaction.h"
#include "store/partitioner.h"

namespace gdur::checker {

struct CheckResult {
  bool ok = true;
  std::string detail;  // description of the first violation found
};

/// A terminated transaction as the history-dump files carry it
/// (front/history_log), and as the live and bench sinks collect it.
struct TxnOutcome {
  core::TxnRecord txn;
  bool committed = false;
  SimTime response_time = 0;
};

/// A recorded transaction. Its reads' (object, writer) pairs sit at
/// [reads_at, reads_at + n_reads) of the History's read array, its write
/// set (ascending) at [writes_at, writes_at + n_writes) of its write array.
struct TxnSummary {
  TxnId id;
  SimTime begin_time = 0;
  SimTime submit_time = 0;
  SimTime response_time = 0;
  std::uint32_t reads_at = 0;
  std::uint32_t n_reads = 0;
  std::uint32_t writes_at = 0;
  std::uint32_t n_writes = 0;
  EpochId epoch = 0;
  bool committed = false;

  [[nodiscard]] bool read_only() const { return n_writes == 0; }
};

class History {
 public:
  /// Starts recording installs from `cluster`. Transaction outcomes are fed
  /// via record_txn (wire it to ClientActor::set_observer).
  void attach(core::Cluster& cluster);

  /// Offline variant: adopts a partitioner without a live cluster, for
  /// checking histories merged from per-process dump files
  /// (front::read_history_dump / gdur_checkhist). Feed records via
  /// record_txn / record_install.
  void attach_partitioner(const store::Partitioner& part) { part_ = part; }

  void record_txn(const core::TxnRecord& t, bool committed, SimTime response);
  void record_install(const core::Cluster::InstallEvent& e);

  [[nodiscard]] std::size_t committed_count() const;
  [[nodiscard]] std::size_t total_count() const { return txns_.size(); }
  /// Every recorded transaction, in record_txn order.
  [[nodiscard]] const std::vector<TxnSummary>& summaries() const {
    return txns_;
  }

  [[nodiscard]] CheckResult check_read_committed() const;
  [[nodiscard]] CheckResult check_serializable() const;
  [[nodiscard]] CheckResult check_update_serializable() const;
  [[nodiscard]] CheckResult check_ww_exclusion() const;
  [[nodiscard]] CheckResult check_consistent_snapshots() const;

  /// Runs every check a criterion requires.
  [[nodiscard]] CheckResult check_criterion(const std::string& criterion) const;

 private:
  /// One read of a recorded transaction: which object, and who wrote the
  /// version read (invalid = the initial version).
  struct ReadPair {
    ObjectId obj = 0;
    TxnId writer;
  };
  [[nodiscard]] std::span<const ReadPair> reads_of(const TxnSummary& t) const {
    return {reads_.data() + t.reads_at, t.n_reads};
  }
  [[nodiscard]] std::span<const ObjectId> writes_of(const TxnSummary& t) const {
    return {writes_.data() + t.writes_at, t.n_writes};
  }

  /// Version order of one object: writers in install order at the
  /// partition's authority site (see build_orders).
  struct ObjectOrder {
    std::vector<TxnId> writers;  // position = version index (0-based)
  };

  [[nodiscard]] CheckResult acyclic_dsg(bool updates_only) const;
  void build_orders() const;
  /// Authority site whose install stream defines the version order of
  /// partition `p`. Fixed membership: always the primary. Under online
  /// reconfiguration the primary may have retired mid-run (its stream
  /// truncates) or joined mid-run (its stream misses the prefix), so the
  /// replica with the longest install stream is authoritative instead —
  /// ties broken primary-first, then lowest site id. Valid after
  /// build_orders().
  [[nodiscard]] SiteId authority_of(PartitionId p) const;

  std::vector<TxnSummary> txns_;
  std::vector<ReadPair> reads_;     // every transaction's reads, in order
  std::vector<ObjectId> writes_;    // every transaction's write set
  std::vector<core::Cluster::InstallEvent> installs_;
  /// Copied out of the cluster at attach() time: the checks run after the
  /// harness run finishes, typically outliving the Cluster itself, so
  /// holding a pointer back into it would dangle.
  std::optional<store::Partitioner> part_;

  // Lazily built caches.
  mutable bool built_ = false;
  mutable std::unordered_map<ObjectId, ObjectOrder> orders_;
  mutable std::unordered_map<TxnId, std::size_t> committed_index_;
  mutable std::unordered_map<PartitionId, SiteId> authority_;
};

}  // namespace gdur::checker

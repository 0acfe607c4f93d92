// Per-process history dumps for the multi-process deployment.
//
// In the single-process live harness the checker::History sees every site's
// installs and every client outcome directly. Split across OS processes,
// each gdur_site only witnesses its own slice — so at drain time each
// process serializes what it saw (codec-framed, same varint discipline as
// the wire) and gdur_checkhist merges the dumps, rebuilds the partitioner
// from the embedded config header, and runs the protocol's criterion check
// over the union. The config header also lets the merger reject dumps from
// mismatched runs (different protocol / keyspace / membership).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "checker/history.h"
#include "common/thread_annotations.h"
#include "core/cluster.h"

namespace gdur::front {

/// Run parameters embedded in every dump; all dumps of one run must agree.
struct HistoryDumpHeader {
  std::string protocol;
  std::string criterion;
  std::uint32_t sites = 0;
  std::uint32_t replication = 1;
  std::uint64_t objects = 0;  // total keyspace (Partitioner's `objects`)
  std::uint32_t partitions_per_site = 1;
  SiteId self = kNoSite;  // the site whose process wrote this dump

  /// True when `o` describes the same run (everything but `self` equal).
  [[nodiscard]] bool compatible(const HistoryDumpHeader& o) const {
    return protocol == o.protocol && criterion == o.criterion &&
           sites == o.sites && replication == o.replication &&
           objects == o.objects &&
           partitions_per_site == o.partitions_per_site;
  }
};

/// One process's history: what a dump file holds.
struct HistoryDump {
  HistoryDumpHeader header;
  std::vector<checker::TxnOutcome> txns;
  std::vector<core::Cluster::InstallEvent> installs;
};

/// Accumulates one process's history; thread-safe (observers fire on the
/// site thread while the main thread may snapshot at drain).
class HistoryLogWriter {
 public:
  explicit HistoryLogWriter(HistoryDumpHeader hdr) {
    dump_.header = std::move(hdr);
  }

  void add_txn(const core::TxnRecord& t, bool committed, SimTime response);
  void add_install(const core::Cluster::InstallEvent& e);

  [[nodiscard]] std::size_t txn_count() const;

  /// Serializes header + records to `path`. Returns false on I/O error.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  mutable Mutex mu_;
  HistoryDump dump_ GUARDED_BY(mu_);
};

/// Parses a dump written by HistoryLogWriter::write_file. nullopt on any
/// malformed byte (same honesty contract as the wire codec).
[[nodiscard]] std::optional<HistoryDump> read_history_dump(
    const std::string& path);

}  // namespace gdur::front

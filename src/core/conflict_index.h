// Certification data structures (see DESIGN.md §9).
//
// ConflictIndex — the per-replica ObjectId → queued-transaction map behind
// the termination protocol's commute scans. Every transaction in the
// termination queue Q is indexed under each object of its footprint
// (rs ∪ ws); the three certification sites that used to walk Q pairwise
// (preemptive-abort vote, GC convoy pass, the recovery re-vote) instead
// visit only the transactions that share at least one object with the
// candidate, turning an O(|Q|) scan per query into O(footprint · bucket).
// This is the object-indexed certification of Parallel Deferred Update
// Replication (Pacheco et al.), adapted to G-DUR's pluggable commute().
//
// The rewrite is exact — not a heuristic — because commute() is
// *footprint-local* (transactions with disjoint footprints always commute):
// that is the plug-in contract of ProtocolSpec::commute, and every predicate
// in protocol_spec.h meets it. The pairwise queue scan is kept only as the
// oracle that checks the contract: with GDUR_VERIFY_CERT=1 in the
// environment (or set_verify_cert_for_testing), every indexed answer is
// recomputed pairwise and a mismatch aborts the process.
//
// Determinism: the index is maintained at deliver/decide/crash points that
// are themselves deterministic, buckets preserve insertion (= queue) order,
// and a query only ever feeds a boolean into the existing control flow — no
// simulator events are created or reordered. A run with the index is
// byte-identical (traces, timelines, metrics) to one with the pairwise scan.
//
// RecencyIndex — the committed-transaction side of the same pipeline: per
// object, the recently committed update transactions that read it (S-DUR's
// write-read certification input, spec.track_committed_readers). Kept next
// to ConflictIndex so queued and committed read-tracking maintenance live
// in one place.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/shard.h"
#include "core/transaction.h"

namespace gdur::core {

/// Is the pairwise cross-check of indexed certification answers on?
/// Reads GDUR_VERIFY_CERT from the environment once, unless a test override
/// is installed.
[[nodiscard]] bool verify_cert_enabled();
/// Test override for the cross-check (nullopt restores the env default).
void set_verify_cert_for_testing(std::optional<bool> on);

class ConflictIndex {
 public:
  struct Candidate {
    const TxnRecord& txn;
    std::uint64_t pos;  // enqueue position (monotonic per replica)
  };

  /// Indexes `t` under every object of its footprint. Returns the assigned
  /// enqueue position. `t` must not already be indexed.
  std::uint64_t add(TxnPtr t);

  /// Removes a transaction (no-op if it is not indexed).
  void remove(const TxnId& id);

  /// Drops everything (crash with state loss).
  void clear();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool contains(const TxnId& id) const {
    return nodes_.contains(id);
  }
  /// Enqueue position of an indexed transaction (nullopt if absent). The
  /// termination queue is always sorted by position, so removal can binary
  /// search instead of scanning.
  [[nodiscard]] std::optional<std::uint64_t> position(const TxnId& id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? std::nullopt
                              : std::optional<std::uint64_t>(it->second.pos);
  }

  /// Visits every indexed transaction sharing a footprint object with `t`
  /// that shard `shard` owns in an S-way keyspace split (DESIGN.md §14; with
  /// `shards == 1`, every object) — each once, buckets in footprint order,
  /// candidates in enqueue order within a bucket. Stops early (returning
  /// true) as soon as `visit` returns true. The slices of t's touched shards
  /// together cover every candidate; one sharing objects in several shards
  /// is visited once per slice, so `visit` must be a pure predicate (every
  /// caller's commute test is).
  template <typename F>
  bool scan(const TxnRecord& t, int shard, int shards, F&& visit) const {
    const std::uint64_t epoch = ++epoch_;
    bool hit = false;
    for_each_footprint(t, [&](ObjectId o) {
      if (hit) return;
      if (shard_of(o, shards) != shard) return;  // another slice's object
      auto it = buckets_.find(o);
      if (it == buckets_.end()) return;
      for (const Node* n : it->second) {
        if (n->visit == epoch) continue;
        n->visit = epoch;
        if (visit(Candidate{*n->txn, n->pos})) {
          hit = true;
          return;
        }
      }
    });
    return hit;
  }

 private:
  struct Node {
    TxnPtr txn;  // owns the record: an index entry outlives term-state GC
    std::uint64_t pos = 0;
    mutable std::uint64_t visit = 0;  // scan dedup epoch
  };

  /// rs(t) ∪ ws(t), each object once (two-pointer merge of the sorted sets).
  template <typename F>
  static void for_each_footprint(const TxnRecord& t, F&& f) {
    auto a = t.rs.begin();
    auto b = t.ws.begin();
    while (a != t.rs.end() || b != t.ws.end()) {
      if (b == t.ws.end() || (a != t.rs.end() && *a < *b)) {
        f(*a++);
      } else if (a == t.rs.end() || *b < *a) {
        f(*b++);
      } else {
        f(*a);
        ++a;
        ++b;
      }
    }
  }

  std::unordered_map<TxnId, Node> nodes_;
  std::unordered_map<ObjectId, std::vector<const Node*>> buckets_;
  std::uint64_t next_pos_ = 0;
  mutable std::uint64_t epoch_ = 0;
};

/// A committed update transaction that read an object (S-DUR certification
/// input; identified by its stamp so visibility is testable).
struct ReaderInfo {
  SiteId origin = 0;  // stamp identity of the reading transaction
  std::uint64_t seq = 0;
  SimTime commit_time = 0;
};

class RecencyIndex {
 public:
  explicit RecencyIndex(std::size_t max_readers_per_object)
      : max_readers_(max_readers_per_object) {}

  /// Records that committed update transaction `r` read `o`; keeps only the
  /// newest `max_readers_per_object` entries (older ones are visible in any
  /// live snapshot and can never fail the S-DUR write-read test).
  void note_reader(ObjectId o, const ReaderInfo& r);

  [[nodiscard]] const std::vector<ReaderInfo>* readers(ObjectId o) const {
    auto it = readers_.find(o);
    return it == readers_.end() ? nullptr : &it->second;
  }

 private:
  std::size_t max_readers_;
  std::unordered_map<ObjectId, std::vector<ReaderInfo>> readers_;
};

}  // namespace gdur::core

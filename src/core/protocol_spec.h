// ProtocolSpec — the plugin table of realization points (§3-§6).
//
// A DUR protocol is assembled by filling this struct: pick a versioning
// mechanism, a choose() flavor, an atomic-commitment algorithm and its
// xcast primitive, the certification scopes, and the commute/certify
// predicates. The files in src/protocols/ mirror the paper's Algorithms
// 5-10 nearly line for line.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/obj_set.h"
#include "common/sim_time.h"
#include "core/shard.h"
#include "core/transaction.h"
#include "store/partitioner.h"
#include "versioning/stamp.h"

namespace gdur::core {

class Replica;
class Cluster;

/// choose(): latest committed version vs. consistent-snapshot version (§4.2).
enum class ChooseKind { kLast, kCons };

/// Atomic commitment algorithm (variable AC of Algorithm 2). Paxos Commit
/// is the third realization the paper lists in §5: every participant's vote
/// runs through a Paxos instance whose acceptors are the replicas, removing
/// the 2PC coordinator as a single point of failure at the price of one
/// extra message delay and Ω(r·n) messages.
enum class AcKind { kGroupComm, kTwoPhaseCommit, kPaxosCommit };

/// xcast realization for group-communication commitment (§5.1).
enum class XcastKind {
  kAtomicBroadcast,    // AB-Cast: total order, delivered at every site
  kAtomicMulticast,    // AM-Cast: genuine, total order per destination set
  kPairwiseMulticast,  // AMpw-Cast: pairwise order (S-DUR)
};

/// certifying_obj() for update transactions (§5). Read-only transactions
/// yield the empty set when `wait_free_queries` holds.
enum class CertScope { kNone, kWriteSet, kReadWriteSet, kAllObjects };

/// vote_snd_obj / vote_recv_obj realizations (§5.1).
enum class VoteScope {
  kCertifying,    // same objects as certifying_obj (the paper's default)
  kWriteSet,      // ws(T)
  kLocalObjects,  // Serrano: certify locally, skip the voting phase
};

/// Context handed to a certify() plug-in. The test runs at one replica and
/// only inspects objects that replica hosts.
///
/// The predicate is evaluated per intra-replica shard (DESIGN.md §14):
/// `shard` names the keyspace slice of an S-way split, and the plug-in must
/// skip objects `owns()` rejects, yielding a *sub-vote* over that slice.
/// Every certifier in core/certifiers.cpp is a per-object conjunction, so
/// the AND of the sub-votes over a transaction's touched shards equals the
/// full verdict exactly (the shardability argument; specs with a
/// non-conjunctive custom certify() clear ProtocolSpec::certify_shardable).
/// A full certification is shard 0 of 1 (the default): owns() accepts
/// everything.
struct CertContext {
  const Replica& replica;
  const TxnRecord& txn;
  SimTime now;
  int shard = 0;
  int shards = 1;
  /// Does this evaluation inspect object `o`? (A sub-vote only looks at its
  /// own keyspace slice.)
  [[nodiscard]] bool owns(ObjectId o) const {
    return shard_of(o, shards) == shard;
  }
};

struct ProtocolSpec {
  std::string name;
  /// The consistency criterion the protocol claims, in the checker's
  /// vocabulary (SER, US, SI, PSI, NMSI, RC, RA); variants built from a
  /// base protocol inherit it.
  const char* criterion = "";

  // Execution phase.
  versioning::VersioningKind theta = versioning::VersioningKind::kTS;
  ChooseKind choose = ChooseKind::kCons;
  /// Ship versioning metadata on the wire even when choose() ignores it
  /// (GMU* / GMU** keep the marshaling cost of the original protocol).
  bool send_metadata = true;

  // Termination phase.
  AcKind ac = AcKind::kTwoPhaseCommit;
  XcastKind xcast = XcastKind::kAtomicMulticast;
  bool ft_multicast = false;  // 6-delay disaster-tolerant AM-Cast (§5.3)
  bool wait_free_queries = true;
  CertScope certifying = CertScope::kWriteSet;
  VoteScope vote_snd = VoteScope::kCertifying;
  VoteScope vote_recv = VoteScope::kWriteSet;
  /// Apply commits in delivery order (mandatory for SER and above, §5.1).
  bool wait_head_of_queue = true;
  /// Maintain the latest version number of every object at every replica
  /// (Serrano's design, enabling local decisions).
  bool track_all_objects = false;

  /// Track, per object, the recently committed update transactions that
  /// *read* it (S-DUR certifies writes against concurrent committed reads).
  bool track_committed_readers = false;

  /// commute(Ti, Tj): may the certifications of Ti and Tj proceed in either
  /// order? Drives both the GC convoy behavior and 2PC preemptive aborts.
  /// Contract: commute() is *footprint-local* — transactions whose
  /// footprints (rs ∪ ws) are disjoint always commute — so the replica
  /// answers commute scans from its per-object ConflictIndex in
  /// O(footprint) instead of walking the whole termination queue. Every
  /// predicate below meets it; GDUR_VERIFY_CERT=1 checks it (DESIGN.md §9.1).
  std::function<bool(const TxnRecord&, const TxnRecord&)> commute;

  /// certify(T) at one replica; see core/certifiers.h for the library.
  std::function<bool(const CertContext&)> certify;

  /// The certification test is trivial (always passes): its CPU cost is not
  /// charged. Used by RC and the GMU** ablation (§8.3).
  bool trivial_certify = false;

  /// certify() is a per-object conjunction over the transaction's
  /// footprint, so shard-restricted sub-votes (CertContext::shard) AND
  /// together to exactly the full verdict. Every certifier in
  /// core/certifiers.cpp qualifies. A custom spec whose certify() couples
  /// objects across shards (e.g. counts conflicts) must clear this; the
  /// replica then casts one sub-vote, shard 0 of 1 (the full test),
  /// regardless of shards_per_site (sharding keeps its lane parallelism for scheduling,
  /// but the verdict comes from the unsharded test).
  bool certify_shardable = true;

  /// Optional override of certifying_obj() (P-Store-LA commits single-site
  /// queries locally). Returns nullopt to fall back to `certifying`.
  std::function<std::optional<ObjSet>(const TxnRecord&,
                                      const store::Partitioner&)>
      certifying_override;

  /// Ran at the coordinator right after a transaction commits (off the
  /// critical path): Walter / S-DUR background propagation.
  std::function<void(Cluster&, const TxnRecord&)> post_commit;
  std::function<void(Cluster&, const TxnRecord&)> post_abort;
};

/// The certifying object set, which may be "all objects" (Serrano).
struct CertifyingSet {
  bool all = false;
  ObjSet objs;
  [[nodiscard]] bool empty() const { return !all && objs.empty(); }
};

/// Evaluates certifying_obj(T) per the spec (including wait-free queries
/// and the override hook).
CertifyingSet certifying_objects(const ProtocolSpec& spec, const TxnRecord& t,
                                 const store::Partitioner& part);

/// Objects for a vote scope (never called with kLocalObjects).
ObjSet vote_objects(VoteScope scope, const CertifyingSet& certifying,
                    const TxnRecord& t);

// Commute predicates used by the paper's protocols (§6).
bool commute_rw_disjoint(const TxnRecord& a, const TxnRecord& b);  // P-Store, S-DUR, GMU
bool commute_ww_disjoint(const TxnRecord& a, const TxnRecord& b);  // Serrano, Walter, Jessy
bool commute_always(const TxnRecord& a, const TxnRecord& b);       // RC

}  // namespace gdur::core

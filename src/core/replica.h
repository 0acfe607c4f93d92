// Replica — one G-DUR instance (Figure 1).
//
// A replica plays two roles:
//   * coordinator for the transactions submitted by its clients — the
//     execution protocol of Algorithm 1 (speculative reads, buffered
//     writes, submission);
//   * participant in the termination protocol of Algorithm 2. The
//     atomic-commitment plug-in — group communication (Algorithm 3),
//     two-phase commit (Algorithm 4) or Paxos Commit — is one
//     core::Commitment engine, picked from spec.ac at construction.
//
// All handlers run as simulator events; CPU time is charged explicitly via
// the site's CpuResource. Store mutations are performed synchronously at
// the decide point while their cost is charged asynchronously, so that a
// successor transaction's certification always sees its predecessors'
// writes (see DESIGN.md §5).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/obj_set.h"
#include "common/task.h"
#include "common/types.h"
#include "core/commitment.h"
#include "core/conflict_index.h"
#include "core/membership.h"
#include "core/protocol_spec.h"
#include "core/transaction.h"
#include "obs/events.h"
#include "store/mv_store.h"
#include "store/wal.h"

namespace gdur::obs {
class StatsSlot;
class FlightRing;
class InvariantMonitor;
}

namespace gdur::core {

class Cluster;

/// Initial interval of the protocol-level retries: vote re-announcement and
/// the reconfiguration rounds wait this long, doubling up to 8x while the
/// transaction or epoch stays undecided.
inline constexpr SimDuration kVoteRetry = milliseconds(150);

class Replica {
 public:
  Replica(Cluster& cluster, SiteId id);

  // ------------------------------------------------------------------
  // Execution protocol (Algorithm 1) — coordinator side.
  // ------------------------------------------------------------------
  void exec_begin(std::function<void(MutTxnPtr)> cb);
  void exec_read(const MutTxnPtr& t, ObjectId x, std::function<void(bool)> cb);
  void exec_write(const MutTxnPtr& t, ObjectId x, std::function<void()> cb);
  void exec_commit(const MutTxnPtr& t, std::function<void(bool)> cb);

  // ------------------------------------------------------------------
  // Termination protocol (Algorithms 2-4) — participant side.
  // ------------------------------------------------------------------
  /// xdeliver(T): the termination message reached this replica.
  void on_term_delivered(const TxnPtr& t);
  /// A certification vote from `voter` (GC: any participant; 2PC: at coord).
  /// The epoch fence and a known outcome are handled here, the tally by the
  /// commitment engine.
  void on_vote(const TxnPtr& t, SiteId voter, bool vote);
  /// 2PC / Paxos Commit outcome computed by the coordinator.
  void on_decision(const TxnPtr& t, bool commit);
  /// The AC realization; Paxos Commit's two phases go to it directly.
  [[nodiscard]] Commitment& commitment() { return *ac_; }

  /// Reply path of a remote read: invoked exactly once with whether a
  /// compatible version exists and (if so, and it is not the implicit
  /// initial version) the version chosen. The deployment backend ships it
  /// back to the requester — Cluster::remote_read wires both directions.
  using ReadReplyFn =
      std::function<void(bool ok, std::optional<store::Version> v)>;

  /// Remote read service (lines 26-30 of Algorithm 1).
  void serve_remote_read(const TxnPtr& t, ObjectId x, ReadReplyFn reply);

  /// Applies a chosen version to the transaction record at its coordinator.
  /// `v` is nullptr for the initial version. Public: the deployment backend
  /// (sim or live) applies remote-read replies through it.
  void record_read(const MutTxnPtr& t, ObjectId x, const store::Version* v);

  // ------------------------------------------------------------------
  // Crash-recovery (sim/fault). Cluster invokes these around a crash
  // window; CpuResource::crash_until and WriteAheadLog::on_crash handle
  // the job queue and the log.
  // ------------------------------------------------------------------
  /// Volatile protocol state is lost: the termination queue Q, per-txn
  /// vote tallies, Paxos acceptor state, and the client commit callbacks.
  /// The committed store and the decided-transaction cache are kept: both
  /// are rebuilt from the log in a real deployment and replaying that here
  /// would only re-derive identical state at simulated cost.
  void on_crash();
  /// Replays the WAL's stable records (deliveries, votes, decisions) to
  /// rebuild prepared-transaction state, then re-votes / re-announces so
  /// in-doubt transactions terminate. Charges replay CPU.
  void on_recover();

  // ------------------------------------------------------------------
  // Membership / online reconfiguration (core/membership, DESIGN.md §12).
  // ------------------------------------------------------------------
  /// Highest configuration epoch this replica has activated. Lagging
  /// replicas fast-forward through epoch gossip: every termination-protocol
  /// message carries its transaction's epoch, and receiving a higher agreed
  /// epoch activates it.
  [[nodiscard]] EpochId epoch() const { return epoch_; }
  /// True while a prepared retirement is draining this site (new update
  /// transactions are refused; in-flight certification continues).
  [[nodiscard]] bool draining() const { return draining_; }

  /// State shipped to a joining site by a snapshot donor: the object chains
  /// of the requested partitions (version identities and stamps included),
  /// the donor's replica-wide version index entries for those objects
  /// (spec.track_all_objects), and the donor's serialized WAL tail for
  /// decision catch-up.
  struct StoreSnapshot {
    std::vector<std::pair<ObjectId, store::ObjectChain>> chains;
    std::vector<std::pair<ObjectId, std::uint64_t>> latest_seq;
    std::vector<std::uint8_t> wal_tail;
  };

  /// Starts coordinating a membership change toward
  /// membership().latest().with_joined/retired(subject). Returns false if a
  /// reconfiguration is already in flight here (the cluster retries later).
  bool reconfig_begin(ReconfigKind kind, SiteId subject);
  /// Reconfiguration-protocol message (prepare/ack/activate/abort/state
  /// transfer/forwarded install) from `m.from`.
  void on_reconfig(ReconfigMsg m);

  /// In-doubt transactions currently tracked (hung-txn detection in tests).
  [[nodiscard]] std::size_t undecided_count() const {
    return term_.size() - term_breakdown().decided;
  }
  [[nodiscard]] std::uint64_t timeout_aborts() const { return timeout_aborts_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

  // ------------------------------------------------------------------
  // Accessors for certify() plug-ins and tests.
  // ------------------------------------------------------------------
  [[nodiscard]] SiteId site() const { return id_; }
  [[nodiscard]] Cluster& cluster() const { return cl_; }
  [[nodiscard]] const store::MVStore& db() const { return db_; }
  /// Latest committed version's pidx for `x` here (0 if never written).
  [[nodiscard]] std::uint64_t latest_pidx(ObjectId x) const;
  /// Serrano's replica-wide version index: latest commit sequence number of
  /// `x` across the whole system (requires spec.track_all_objects).
  [[nodiscard]] std::uint64_t latest_seq_of(ObjectId x) const;
  /// Recently committed update readers of `x` (spec.track_committed_readers).
  [[nodiscard]] const std::vector<ReaderInfo>* recent_readers(ObjectId x) const {
    return recency_.readers(x);
  }
  [[nodiscard]] std::size_t queue_length() const { return q_.size(); }
  [[nodiscard]] const ConflictIndex& conflict_index() const { return cidx_; }

  /// Termination-queue progress, mirrored in relaxed atomics so the stall
  /// watchdog (obs/watchdog) can probe a live replica from another thread
  /// without touching q_ itself. pending = pushes - pops.
  [[nodiscard]] std::uint64_t queue_pushes() const {
    return obs_q_pushes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t queue_pops() const {
    return obs_q_pops_.load(std::memory_order_relaxed);
  }

  /// Test seam: installs a committed version directly into the local store
  /// (drives ObjectChain pruning in certification regression tests).
  void install_version_for_testing(ObjectId o, store::Version v) {
    db_.install(o, std::move(v));
  }

  /// A decided transaction's cached outcome.
  struct Outcome {
    bool committed = false;
    obs::AbortReason reason = obs::AbortReason::kNone;
  };
  /// `id`'s outcome, if it is decided here (and still in the decided
  /// cache). Site execution context only: live mode reads it to answer a
  /// message about a transaction whose record this site has released.
  [[nodiscard]] const Outcome* known_outcome(const TxnId& id) const {
    auto it = decided_cache_.find(id);
    return it == decided_cache_.end() ? nullptr : &it->second;
  }

  /// Why a transaction this replica coordinated was aborted, for the
  /// abort-reason taxonomy. Every client (workload flows, the front door)
  /// classifies through here: an execution-phase failure is a snapshot
  /// miss; a termination abort carries the reason in the decided cache
  /// (kCertConflict if the entry already aged out).
  [[nodiscard]] obs::AbortReason abort_reason(const TxnId& id,
                                              bool exec_failure) const {
    if (exec_failure) return obs::AbortReason::kSnapshotFailure;
    const Outcome* o = known_outcome(id);
    return o == nullptr || o->reason == obs::AbortReason::kNone
               ? obs::AbortReason::kCertConflict
               : o->reason;
  }

  // ------------------------------------------------------------------
  // Retention probes (soak/regression tests). Each per-txn table below has
  // a retention contract documented at its declaration; these sizes must
  // reach a steady state over a long run, not grow with transaction count.
  // ------------------------------------------------------------------
  [[nodiscard]] std::size_t term_table_size() const { return term_.size(); }
  [[nodiscard]] std::size_t paxos_table_size() const {
    return ac_->acceptor_table_size();
  }
  [[nodiscard]] std::size_t decided_cache_size() const {
    return decided_cache_.size();
  }
  [[nodiscard]] std::size_t commit_cb_count() const {
    return commit_cbs_.size();
  }
  /// Diagnostic slice of term_: how many entries are decided / parked in
  /// the ordered queue / vote-announced / GC early leavers (announced, out
  /// of Q, undecided), and decided outside Q (0: the decision erases them).
  /// Lets a soak test tell a stuck population (undecided, in_q) from the
  /// early leavers the term-state GC holds.
  struct TermBreakdown {
    std::size_t decided = 0;
    std::size_t in_q = 0;
    std::size_t announced = 0;
    std::size_t left_early = 0;
    std::size_t decided_outside_q = 0;
  };
  [[nodiscard]] TermBreakdown term_breakdown() const {
    TermBreakdown b;
    // gdur-lint: allow(determinism/unordered-iter) order-independent count aggregation; never feeds schedules, traces, or votes
    for (const auto& [id, st] : term_) {
      if (st.decided) ++b.decided;
      if (st.in_q) ++b.in_q;
      if (st.announced) ++b.announced;
      if (!st.in_q && st.announced && !st.decided) ++b.left_early;
      if (!st.in_q && st.decided) ++b.decided_outside_q;
    }
    return b;
  }

 private:
  /// Test seam: tests/test_certify_clock.cpp drives evaluate_certify
  /// directly (with a ticking clock) to pin the one-timestamp-per-
  /// certification contract.
  friend struct CertifyTestPeer;
  // The commitment engines (core/commitment.cpp) run the AC-specific steps
  // on this replica's queue, term state and decision path.
  friend class Commitment;
  friend class GroupCommit;
  friend class CoordinatorCommit;
  friend class TwoPhaseCommit;
  friend class PaxosCommit;

  // --- execution helpers ---
  /// CPU charge of one read: lookup, version selection, snapshot upkeep.
  [[nodiscard]] SimDuration read_cost() const;
  /// choose() (§4.2): the version of `x` that `snap` reads here (nullptr =
  /// the initial version), or nullopt while none is compatible.
  [[nodiscard]] std::optional<const store::Version*> choose_version(
      ObjectId x, const versioning::TxnSnapshot& snap) const;
  /// Runs `again` after the read-retry delay and one more read charge.
  void retry_read(Task again);
  /// The read of `x` in `t`'s snapshot, local (line 11) or served for a
  /// remote coordinator (lines 26-30): chooses a version, retrying while
  /// none is compatible, and hands the choice (nullopt after
  /// kMaxReadAttempts) to `done`.
  template <typename Done>
  void read_attempt(const TxnPtr& t, ObjectId x, int attempt, Done done);

  // --- termination helpers ---
  TermState& state_of(const TxnPtr& t);
  /// Appends `t` to Q and the conflict index.
  void enqueue(const TxnPtr& t, TermState& st);
  /// The one commute scan behind all three certification sites (preemptive
  /// 2PC/Paxos vote, GC convoy vote, recovery re-vote): does `t` conflict
  /// (fail to commute) with another queued transaction? `pos` is t's
  /// enqueue position; `preceding_only` restricts the scan to transactions
  /// delivered before t (Algorithm 3's convoy test, which considers decided
  /// but still-queued predecessors too), otherwise decided transactions are
  /// skipped (Algorithm 4's preemptive-abort test). Answered from the
  /// touched shards' ConflictIndex slices (the spec's commute() is
  /// footprint-local by contract); with GDUR_VERIFY_CERT on, every indexed
  /// answer is cross-checked against the pairwise queue scan.
  [[nodiscard]] bool queued_conflict(const TxnRecord& t, std::uint64_t pos,
                                     bool preceding_only) const;
  /// The O(|Q|) pairwise scan — the GDUR_VERIFY_CERT oracle.
  [[nodiscard]] bool queued_conflict_pairwise(const TxnRecord& t,
                                              bool preceding_only) const;
  void cast_vote(const TxnPtr& t, bool preemptive_abort);
  /// The certification verdict for `t` at this replica: the AND of
  /// per-shard sub-votes, each the spec's certify() restricted to one
  /// touched keyspace slice, combined in ascending shard order (DESIGN.md
  /// §14) — one sub-vote, shard 0 of 1, on an unsharded replica or for a
  /// spec without certify_shardable. Pure — safe to evaluate on a shard
  /// certifier thread.
  /// Hot root: runs once per touched shard per certification; one clock
  /// read at the top, then noclock all the way down (the sub-vote lambda
  /// must see a single timestamp).
  [[nodiscard]] GDUR_HOT_PATH("noalloc,nolock,noclock,nosleep")
  bool evaluate_certify(const TxnRecord& t) const;
  /// Second half of cast_vote, after the (optional) durable log write.
  void announce_vote(const TxnPtr& t, bool vote);
  /// Just the vote messages (no decide / queue bookkeeping) — shared by the
  /// first announcement and fault-driven re-announcements.
  void send_vote_msgs(const TxnPtr& t, bool vote);
  /// `reason` classifies an abort (ignored on commit): certification
  /// conflicts are the default; timeout paths pass kPresumedAbort.
  void decide(const TxnPtr& t, bool commit,
              obs::AbortReason reason = obs::AbortReason::kCertConflict);
  // --- decided cache ---
  /// Caches `id`'s outcome (bounded FIFO).
  void remember_outcome(const TxnId& id, Outcome o);
  /// A message about `t` from a site in doubt: if `t` is decided here,
  /// answers `to` with the outcome (under fault tolerance) and returns true.
  bool answer_if_decided(const TxnPtr& t, SiteId to);
  // --- fault-tolerance helpers (active only when the cluster runs with a
  // fault plan and a termination timeout) ---
  /// Re-announces the remembered vote with backoff until decided.
  void schedule_vote_retry(const TxnPtr& t, int round);
  /// Coordinator-side termination timeout (§5.3 in-doubt resolution).
  void arm_term_timeout(const TxnPtr& t, int round);
  // --- termination-state lifetime ---
  /// Erases `it`'s termination state and tells the deployment
  /// (Cluster::term_released). Every erasure of one entry goes through
  /// here: decide(), process_queue_head() and the term-state GC sweep.
  void release_term(std::unordered_map<TxnId, TermState>::iterator it);
  void process_queue_head();
  /// Erases what outlives `id`'s decision kTermGcDelay from now: a GC early
  /// leaver's term state, and the engine's state (Commitment::forget: a
  /// Paxos acceptor slot) — or, while the id is still in the ordered queue,
  /// another kTermGcDelay later, since process_queue_head() requires every
  /// queued id to keep its termination state. Appends to gc_fifo_; arms the
  /// sweep timer if none is armed.
  void schedule_term_gc(const TxnId& id);
  /// Arms the one sweep timer for the front of gc_fifo_.
  void arm_term_gc();
  /// The sweep timer's body: runs every entry of gc_fifo_ due now, then
  /// re-arms for the new front.
  void sweep_term_gc();
  void apply_commit(const TxnPtr& t);
  void remove_from_q(const TxnId& id);
  void finish_coordinator(const TxnPtr& t, bool commit);
  [[nodiscard]] bool has_local_writes(const TxnRecord& t) const;
  [[nodiscard]] SimDuration certify_cost(const TxnRecord& t) const;

  // --- membership helpers. Without a reconfiguration plan every site is a
  // member of the one epoch-0 view, so the fences below always pass. ---
  /// Activates agreed epoch `e` if it is newer than the current one (epoch
  /// gossip entry point — called with every received transaction's epoch).
  void maybe_adopt_epoch(EpochId e);
  /// Epoch gossip for a received termination message of `t`, then: is `s`
  /// a member of the view of `t`'s epoch?
  [[nodiscard]] bool epoch_admits(const TxnRecord& t, SiteId s);
  void activate_epoch(EpochId e);
  /// True iff this site participates in the view of epoch `e`.
  [[nodiscard]] bool member_of(EpochId e) const;
  /// Durably logs a reconfiguration record; `done` runs once stable (or
  /// immediately when running without a WAL).
  void log_reconfig(store::WalRecord::Kind kind, const MembershipView& v,
                    SiteId coord, std::function<void()> done);
  /// The sites a change to epoch `e` involves: the base view's members,
  /// then those of `extra` outside it.
  [[nodiscard]] std::vector<SiteId> change_parties(
      EpochId e, const std::vector<SiteId>& extra) const;
  /// Runs `fn` after retry round `round`'s backoff (the vote-retry interval,
  /// doubling up to 8x), unless this site is down by then: recovery resumes
  /// what a crash interrupted.
  void after_backoff(int round, Task fn);
  /// Coordinator: (re)broadcasts the prepare for epoch `e` with backoff
  /// until acks complete or the proposal is abandoned.
  void reconfig_round(EpochId e, int round);
  void reconfig_commit(EpochId e);
  void reconfig_abort(EpochId e);
  /// Coordinator: rebroadcasts kActivate a few rounds (epoch gossip covers
  /// any straggler afterwards).
  void activate_round(EpochId e, int round);
  void handle_prepare(const ReconfigMsg& m);
  void handle_snap_request(const ReconfigMsg& m);
  void handle_snap_reply(const ReconfigMsg& m);
  /// Joining site: acks the prepare once every snapshot reply arrived.
  void joiner_maybe_ack();
  /// Late-install forwarding: ships committed `t` to every member of
  /// view(e) outside view(t.epoch) that hosts one of its writes (every such
  /// member under a replica-wide version index); receivers deduplicate.
  void forward_installs(const TxnPtr& t, EpochId e);
  /// Forwards committed `t` to `to` (kInstall).
  void send_install(SiteId to, const TxnPtr& t);
  /// Acks the prepare of epoch `e` to its coordinator `to`.
  void send_ack(SiteId to, EpochId e);

  Cluster& cl_;
  SiteId id_;
  store::MVStore db_;

  // This site's observability plane parts, resolved once at construction.
  obs::StatsSlot& oslot_;
  obs::FlightRing& oring_;
  obs::InvariantMonitor& omon_;
  std::atomic<std::uint64_t> obs_q_pushes_{0};
  std::atomic<std::uint64_t> obs_q_pops_{0};

  std::unique_ptr<Commitment> ac_;  // the AC realization (spec.ac)
  std::deque<TxnId> q_;  // the termination queue Q of Algorithm 2
  // Retention: an entry (pinning its TxnRecord) is created at submit,
  // delivery or an earlier vote, and erased once the transaction is
  // decided and out of Q — at the end of decide() or when
  // process_queue_head() pops it; decided_cache_ answers for it after
  // that. A no-local-writes GC participant's early leave drops the record
  // but keeps the entry until the term-state GC, kTermGcDelay later, which
  // also erases the engine's own state (Paxos acceptor slots). Size: the
  // in-flight work plus the GC window's early leavers. Each erasure of an
  // entry is reported to the deployment (release_term), which drops its
  // copy of the record then; a crash (simulator only) clears the table
  // without reporting.
  std::unordered_map<TxnId, TermState> term_;
  // Term-state GC: pending erasures in arming order, live from gc_head_ on
  // (decide() still pushes one, which keeps the sweep timer's schedule).
  // Each is due kTermGcDelay after it was armed, so deadlines never
  // decrease and a single timer (gc_armed_), armed for the front, serves
  // them all. A vector allocates on its first push, not at construction.
  // A crash leaves it alone, like every simulator timer: an erasure armed
  // before the crash still runs on its deadline.
  struct GcEntry {
    SimTime due = 0;
    TxnId id;
  };
  std::vector<GcEntry> gc_fifo_;
  std::size_t gc_head_ = 0;
  bool gc_armed_ = false;
  static constexpr SimDuration kTermGcDelay = seconds(5);
  std::unordered_map<ObjectId, std::uint64_t> latest_seq_;  // Serrano index
  // Certification pipeline (core/conflict_index.h): queued transactions
  // indexed by footprint object, mirroring q_ exactly; plus S-DUR's
  // per-object committed readers.
  ConflictIndex cidx_;
  RecencyIndex recency_{kMaxTrackedReaders};
  // Decided-transaction outcomes (bounded FIFO), the only record of a
  // decided transaction out of Q: retried votes, late deliveries and
  // certifications, and replayed log records are answered with the
  // decision instead of reopening certification. The cap must outlast the
  // 5 s straggler window: 200k covers it at up to 40k decisions/s per
  // replica, against about 4k/s in perfbench's sim-fig3.
  std::unordered_map<TxnId, Outcome> decided_cache_;
  std::deque<TxnId> decided_fifo_;
  static constexpr std::size_t kDecidedCacheCap = 200'000;
  std::uint64_t timeout_aborts_ = 0;
  std::uint64_t recoveries_ = 0;

  // Coordinator state.
  std::uint64_t txn_counter_ = 0;
  std::uint64_t coord_seq_ = 0;  // update-transaction serial (stamp identity)
  // Retention: erased by finish_coordinator at the decision; every
  // submitted transaction decides at its coordinator (fault-free runs
  // directly, faulty runs via the presumed-abort timeout), so the table
  // holds only in-flight transactions.
  std::unordered_map<TxnId, std::function<void(bool)>> commit_cbs_;

  // --- membership / reconfiguration state ---
  /// Commits decided while reconfiguration is on, retained (bounded FIFO)
  /// so activating a later epoch can re-forward installs that were decided
  /// before this replica learned of the new view: the inline late-install
  /// forwarding in apply_commit() compares against epoch_ at decision time
  /// and stays silent when the decision races ahead of activation.
  std::deque<TxnPtr> recent_commits_;
  static constexpr std::size_t kRecentCommitCap = 4096;
  EpochId epoch_ = 0;       // highest activated epoch
  bool draining_ = false;   // prepared retirement of this site
  /// Reconfiguration-coordinator state for one in-flight proposal.
  struct ReconfigCoord {
    MembershipView next;
    ReconfigKind kind = ReconfigKind::kJoin;
    SiteId subject = kNoSite;
    std::vector<SiteId> acked;  // deduped participant acks (self included)
    bool joiner_acked = false;
    bool decided = false;
  };
  std::optional<ReconfigCoord> rcfg_;
  /// Participant side: the prepared (not yet activated) change.
  struct Pending {
    std::shared_ptr<const MembershipView> view;
    ReconfigKind kind = ReconfigKind::kJoin;
    SiteId subject = kNoSite;
    SiteId coord = kNoSite;
  } pending_;
  // Joining-site transfer state (volatile: a crash restarts the transfer on
  // the coordinator's next prepare round). `waiting` holds the donors whose
  // snapshot replies are still outstanding — a set, not a counter, so a
  // straggler reply from a restarted round cannot complete a transfer it
  // does not belong to.
  struct Transfer {
    std::vector<SiteId> waiting{};
    EpochId epoch = 0;
    bool done = false;
  } transfer_;
  /// Donor side: partitions whose applies are streamed to a prepared joiner
  /// until its epoch activates (then late-install forwarding takes over).
  struct StreamReg {
    SiteId to = kNoSite;
    EpochId epoch = 0;
    std::vector<PartitionId> parts;
  };
  std::vector<StreamReg> stream_to_;
  static constexpr int kMaxReconfigRounds = 16;
  static constexpr int kActivateRounds = 3;

  static constexpr int kMaxReadAttempts = 8;
  static constexpr SimDuration kReadRetryDelay = milliseconds(3);
  static constexpr std::size_t kMaxTrackedReaders = 16;
  // Vote re-announcement rounds: backoff doubles up to 8x the base interval,
  // so 12 rounds outlast the transport's give_up horizon — enough for every
  // survivable fault window; a txn still in doubt afterwards is hung and
  // the harness reports it.
  static constexpr int kMaxVoteRetries = 12;
};

}  // namespace gdur::core

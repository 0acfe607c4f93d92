#include "core/replica.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/cluster.h"
#include "net/wire.h"

namespace gdur::core {

Replica::Replica(Cluster& cluster, SiteId id)
    : cl_(cluster),
      id_(id),
      oslot_(cluster.plane().slot(id)),
      oring_(cluster.plane().ring(id)),
      omon_(cluster.plane().invariants()),
      ac_(Commitment::make(*this)) {}

std::uint64_t Replica::latest_pidx(ObjectId x) const {
  const auto* chain = db_.chain(x);
  return (chain == nullptr || chain->empty()) ? 0 : chain->latest().pidx;
}

std::uint64_t Replica::latest_seq_of(ObjectId x) const {
  auto it = latest_seq_.find(x);
  return it == latest_seq_.end() ? 0 : it->second;
}

bool Replica::has_local_writes(const TxnRecord& t) const {
  return std::any_of(t.ws.begin(), t.ws.end(), [this](ObjectId o) {
    return cl_.partitioner().is_local(id_, o);
  });
}

SimDuration Replica::certify_cost(const TxnRecord& t) const {
  const auto& cost = cl_.cost();
  return cost.certify_base +
         cost.certify_per_obj * static_cast<SimDuration>(t.rs.size() + t.ws.size());
}

// ---------------------------------------------------------------------------
// Execution protocol (Algorithm 1).
// ---------------------------------------------------------------------------

void Replica::exec_begin(std::function<void(MutTxnPtr)> cb) {
  auto t = std::make_shared<TxnRecord>();
  t->id = TxnId{id_, ++txn_counter_};
  t->begin_time = cl_.now();
  cl_.oracle().begin_snapshot(id_, t->snap);
  cb(std::move(t));
}

void Replica::exec_read(const MutTxnPtr& t, ObjectId x,
                        std::function<void(bool)> cb) {
  // Service fencing: a site outside its active view no longer receives
  // installs, so serving reads from it would expose stale snapshots.
  if (!member_of(epoch_)) {
    cb(false);
    return;
  }
  // Line 10: a transaction observes its own buffered writes.
  if (t->ws.contains(x)) {
    cb(true);
    return;
  }
  const SiteId target = cl_.nearest_replica(id_, x);
  if (target == id_) {
    // Line 11: local read.
    cl_.run_local(id_, read_cost(), [this, t, x, cb = std::move(cb)]() mutable {
      read_attempt(t, x, 0,
                   [this, t, x, cb = std::move(cb)](
                       std::optional<const store::Version*> v) {
                     if (v) record_read(t, x, *v);
                     cb(v.has_value());
                   });
    });
    return;
  }
  // Line 13: asynchronous remote read (the snapshot travels with it).
  cl_.remote_read(id_, target, t, x, std::move(cb));
}

SimDuration Replica::read_cost() const {
  const auto& cost = cl_.cost();
  return cost.read_local + cost.version_select +
         (cl_.spec().choose == ChooseKind::kCons ? cost.snapshot_maintain
                                                 : SimDuration{0});
}

std::optional<const store::Version*> Replica::choose_version(
    ObjectId x, const versioning::TxnSnapshot& snap) const {
  const auto* chain = db_.chain(x);
  int idx;
  if (cl_.spec().choose == ChooseKind::kLast) {
    idx = (chain == nullptr || chain->empty())
              ? versioning::kInitialVersion
              : static_cast<int>(chain->size()) - 1;
  } else {
    idx = cl_.oracle().choose(id_, chain,
                              cl_.partitioner().partition_of(x), snap);
  }
  if (idx == versioning::kNoCompatibleVersion) return std::nullopt;
  if (idx == versioning::kInitialVersion) return nullptr;
  return &chain->at(static_cast<std::size_t>(idx));
}

void Replica::retry_read(Task again) {
  cl_.run_after(id_, kReadRetryDelay, [this, again = std::move(again)]() mutable {
    const auto& cost = cl_.cost();
    cl_.run_local(id_, cost.read_local + cost.version_select, std::move(again));
  });
}

template <typename Done>
void Replica::read_attempt(const TxnPtr& t, ObjectId x, int attempt,
                           Done done) {
  const auto v = choose_version(x, t->snap);
  if (!v && attempt + 1 < kMaxReadAttempts) {
    retry_read([this, t, x, attempt, done = std::move(done)]() mutable {
      read_attempt(t, x, attempt + 1, std::move(done));
    });
    return;
  }
  done(v);
}

void Replica::record_read(const MutTxnPtr& t, ObjectId x,
                          const store::Version* v) {
  const PartitionId p = cl_.partitioner().partition_of(x);
  t->rs.insert(x);
  const ReadEntry entry{.obj = x,
                        .part = p,
                        .writer = v != nullptr ? v->writer : TxnId{},
                        .pidx = v != nullptr ? v->pidx : 0};
  // Idempotent per object: a re-read replaces the old entry (keeping the
  // latest observed version) instead of appending a duplicate. rs.insert
  // already dedups, and certifiers / read_of must see one entry per object
  // — a stale duplicate would be re-checked and read_of would answer with
  // whichever came first.
  auto it = std::find_if(t->reads.begin(), t->reads.end(),
                         [x](const ReadEntry& e) { return e.obj == x; });
  if (it != t->reads.end()) {
    *it = entry;
  } else {
    t->reads.push_back(entry);
  }
  cl_.oracle().note_read(v, p, t->snap);
}

void Replica::serve_remote_read(const TxnPtr& t, ObjectId x,
                                ReadReplyFn reply) {
  // Lines 26-30: choose a version against the requester's snapshot and
  // reply. The transaction record is updated at the coordinator, on reply
  // (the deployment backend routes `reply` back through record_read).
  cl_.run_local(id_, read_cost(),
                [this, t, x, reply = std::move(reply)]() mutable {
                  read_attempt(t, x, 0,
                               [reply = std::move(reply)](
                                   std::optional<const store::Version*> v) {
                                 std::optional<store::Version> out;
                                 if (v && *v != nullptr) out = **v;
                                 reply(v.has_value(), std::move(out));
                               });
                });
}

void Replica::exec_write(const MutTxnPtr& t, ObjectId x,
                         std::function<void()> cb) {
  // Lines 16-18: buffer the after-value in ws(T).
  t->ws.insert(x);
  cl_.run_local(id_, cl_.cost().client_op, std::move(cb));
}

void Replica::exec_commit(const MutTxnPtr& t, std::function<void(bool)> cb) {
  // Algorithm 2, submit(T).
  t->submit_time = cl_.now();
  // Every quorum computation for this transaction is pinned to the view of
  // the epoch stamped here.
  t->epoch = epoch_;
  // Service fencing: a site outside its own active view (a joiner whose
  // epoch has not activated, a retiree past activation) must not submit,
  // and a draining retiree refuses new update transactions.
  if (!member_of(epoch_) || (draining_ && !t->read_only())) {
    cb(false);
    return;
  }
  if (!t->read_only())
    t->stamp = cl_.oracle().submit_stamp(id_, ++coord_seq_, t->snap);

  std::vector<SiteId> dests = cl_.participants(*t);
  if (dests.empty()) {
    // Line 12: a wait-free query commits without synchronization. An update
    // whose certifying replicas all left the view (impossible while the
    // coverage invariant, replication >= 2 and one change at a time, holds)
    // fails instead of wedging.
    cb(certifying_objects(cl_.spec(), *t, cl_.partitioner()).empty());
    return;
  }

  commit_cbs_[t->id] = std::move(cb);
  state_of(t);
  oslot_.record(obs::Counter::kTxnSubmitted);
  oring_.append("submit", cl_.now(), id_, t->id.coord, t->id.seq);
  if (auto* tr = cl_.trace())
    tr->txn_submitted(t->id, id_, t->submit_time, t->read_only());

  cl_.xcast_term(t, std::move(dests));
  // Under faults a termination attempt can stall (lost votes, crashed
  // participants); the coordinator resolves in-doubt transactions by
  // timeout instead of blocking forever.
  if (cl_.fault_tolerance_on()) arm_term_timeout(t, 0);
}

// ---------------------------------------------------------------------------
// Termination protocol (Algorithms 2-4).
// ---------------------------------------------------------------------------

TermState& Replica::state_of(const TxnPtr& t) {
  auto [it, created] = term_.try_emplace(t->id);
  if (created) it->second.txn = t;
  return it->second;
}

void Replica::enqueue(const TxnPtr& t, TermState& st) {
  st.in_q = true;
  q_.push_back(t->id);
  obs_q_pushes_.fetch_add(1, std::memory_order_relaxed);
  st.q_pos = cidx_.add(t);
}

void Replica::on_term_delivered(const TxnPtr& t) {
  // A site outside the transaction's view must not certify or vote: its
  // participation was never counted in the quorum computed at submit, so a
  // vote from it could double-count, and a joiner would certify against
  // state it did not hold at the epoch. (A retiree IS still in the view of
  // older epochs and keeps certifying those until they drain.)
  if (!epoch_admits(*t, id_)) return;
  if (known_outcome(t->id) != nullptr) return;  // late redelivery
  auto& st = state_of(t);
  if (st.in_q || st.voted || st.decided) return;
  enqueue(t, st);
  oslot_.record(obs::Counter::kTermDelivered);
  oslot_.record_value(obs::Hist::kQueueDepth, q_.size());
  oring_.append("deliver", cl_.now(), id_, t->id.coord, t->id.seq);
  if (auto* tr = cl_.trace())
    tr->term_delivered(t->id, id_, cl_.now());

  // Under fault injection the delivery itself is a recoverable state change
  // (it rebuilds Q on replay); logged fire-and-forget — the vote is the
  // record that synchronizes with stable storage.
  if (auto* wal = cl_.wal(id_); wal && cl_.fault_injector() != nullptr) {
    oslot_.record(obs::Counter::kWalAppends);
    wal->append(net::wire::control(),
                store::WalRecord{store::WalRecord::Kind::kDeliver, t->id,
                                 false, t->epoch, t},
                [] {});
  }

  ac_->on_enqueued(t, st);
}

bool Replica::queued_conflict_pairwise(const TxnRecord& t,
                                       bool preceding_only) const {
  const auto& spec = cl_.spec();
  for (const TxnId& other : q_) {
    if (other == t.id) {
      if (preceding_only) return false;  // only transactions delivered first
      continue;
    }
    const auto it = term_.find(other);
    if (it == term_.end()) continue;
    // The convoy test orders against *every* predecessor in Q, decided or
    // not; the preemptive test only fears transactions still in flight.
    if (!preceding_only && it->second.decided) continue;
    if (!spec.commute(t, *it->second.txn)) return true;
  }
  return false;
}

bool Replica::queued_conflict(const TxnRecord& t, std::uint64_t pos,
                              bool preceding_only) const {
  const auto test = [&](const ConflictIndex::Candidate& c) {
    if (c.pos == pos) return false;  // self
    if (preceding_only && c.pos > pos) return false;
    const auto it = term_.find(c.txn.id);
    if (it == term_.end()) return false;
    if (!preceding_only && it->second.decided) return false;
    return !cl_.spec().commute(t, c.txn);
  };
  // The index is queried slice by slice, in ascending shard order, and the
  // slice answers OR together (one slice on an unsharded replica). The
  // union of the touched slices' buckets is every bucket t's footprint
  // names, and the commute test is a pure predicate, so the OR does not
  // depend on the shard count (revisits across slices change nothing).
  const int shards = cl_.shards_per_site();
  bool conflict = false;
  touched_shards(t, shards).for_each([&](int sh) {
    if (conflict) return;
    conflict = cidx_.scan(t, sh, shards, test);
  });
  if (verify_cert_enabled()) {
    const bool pairwise = queued_conflict_pairwise(t, preceding_only);
    if (pairwise != conflict) {
      std::fprintf(stderr,
                   "GDUR_VERIFY_CERT: site %d txn %d.%llu %s scan mismatch "
                   "(indexed=%d pairwise=%d, |Q|=%zu)\n",
                   static_cast<int>(id_), static_cast<int>(t.id.coord),
                   static_cast<unsigned long long>(t.id.seq),
                   preceding_only ? "convoy" : "preemptive",
                   static_cast<int>(conflict), static_cast<int>(pairwise),
                   q_.size());
      std::abort();
    }
  }
  return conflict;
}

bool Replica::evaluate_certify(const TxnRecord& t) const {
  const auto& spec = cl_.spec();
  // One clock read per certification, taken before the sub-vote fan-out.
  // Reading cl_.now() inside the per-shard lambda (as this used to) is a
  // real clock syscall per touched shard under live::LiveCluster, and the
  // sub-votes would each see a *different* timestamp — a certify() that
  // consults ctx.now could then disagree with its own full verdict.
  // gdur-analyze: allow(gdur-hotpath-reachability) the single sanctioned
  // clock read of the certification path; everything below is noclock.
  const SimTime now = cl_.now();
  // Sub-vote combination (DESIGN.md §14): one shard-restricted certify()
  // per touched keyspace slice, ANDed in ascending shard order — one call,
  // shard 0 of 1, on an unsharded replica or for a spec that is not
  // certify_shardable. Every shardable certify() is a per-object
  // conjunction, so the combined verdict equals the full one exactly — the
  // shard count never changes a decision, only where the work runs.
  const int shards = spec.certify_shardable ? cl_.shards_per_site() : 1;
  bool v = true;
  touched_shards(t, shards).for_each([&](int sh) {
    if (!v) return;
    v = spec.certify(CertContext{*this, t, now, sh, shards});
  });
  return v;
}

void Replica::cast_vote(const TxnPtr& t, bool preemptive_abort) {
  auto& st = state_of(t);
  st.voted = true;
  const bool cheap = preemptive_abort || cl_.spec().trivial_certify;
  const SimDuration service =
      cheap ? cl_.cost().queue_op : certify_cost(*t);
  // The verdict computation (pure, shard-thread-safe) and its consequences
  // (vote bookkeeping, WAL, announcement — site-thread state) are split
  // across the certification seam: the backend decides where and when the
  // compute runs (serial site CPU, sim shard lanes, live shard threads)
  // and always delivers the verdict back on this site's execution context.
  cl_.run_certify(
      id_, t, service,
      [this, t, preemptive_abort] {
        return !preemptive_abort && evaluate_certify(*t);
      },
      [this, t, service](bool v) {
        if (auto* tr = cl_.trace())
          tr->certified(t->id, id_, cl_.now(), service, v);
        oslot_.record(obs::Counter::kCertified);
        oslot_.record_value(obs::Hist::kCertifyUs,
                            static_cast<std::uint64_t>(service / 1000));
        // Crash-recovery durability (§5.3): the vote is a state change of
        // the commitment protocol and must reach stable storage before it
        // is announced.
        if (auto* wal = cl_.wal(id_)) {
          oslot_.record(obs::Counter::kWalAppends);
          std::optional<store::WalRecord> rec;
          if (cl_.fault_injector() != nullptr)
            rec = store::WalRecord{store::WalRecord::Kind::kVote, t->id, v,
                                   t->epoch, t};
          wal->append(net::wire::vote() + 32, std::move(rec),
                      [this, t, v] { announce_vote(t, v); });
          return;
        }
        announce_vote(t, v);
      });
}

void Replica::send_vote_msgs(const TxnPtr& t, bool v) {
  // Seeded equivocation (sim::Sabotage::kDoubleVote): the wire vote
  // contradicts the value announce_vote recorded — exactly the double-vote
  // the online invariant monitor must catch at every receiver.
  if (auto* fi = cl_.fault_injector();
      fi != nullptr && fi->consume_sabotage(sim::Sabotage::Kind::kDoubleVote,
                                            id_, cl_.now()))
    v = !v;
  oslot_.record(obs::Counter::kVotesSent);
  ac_->send_vote(t, v);
}

void Replica::announce_vote(const TxnPtr& t, bool v) {
  // An outcome that arrived while the verdict was computing erased the term
  // state for good.
  if (known_outcome(t->id) == nullptr) {
    auto& st = state_of(t);
    st.my_vote = v;
    st.announced = true;
  }
  omon_.note_vote(id_, t->id, v, cl_.now());
  oring_.append(v ? "vote_true" : "vote_false", cl_.now(), id_, t->id.coord,
                t->id.seq);
  ac_->announce(t, v);
}

void Replica::schedule_vote_retry(const TxnPtr& t, int round) {
  if (round >= kMaxVoteRetries) return;
  after_backoff(round, [this, t, round] {
    if (known_outcome(t->id) != nullptr) return;
    auto it = term_.find(t->id);
    if (it == term_.end() || it->second.decided || !it->second.announced)
      return;
    send_vote_msgs(t, it->second.my_vote);
    schedule_vote_retry(t, round + 1);
  });
}

void Replica::arm_term_timeout(const TxnPtr& t, int round) {
  cl_.run_after(id_, cl_.term_timeout(), [this, t, round] {
    if (known_outcome(t->id) != nullptr) return;
    if (cl_.site_down(id_))
      return;  // crashed: on_recover restarts in-doubt resolution
    ac_->on_timeout(t, round);
  });
}

void Replica::on_vote(const TxnPtr& t, SiteId voter, bool vote) {
  // Votes are only valid from sites of the transaction's view: a retired
  // site's delayed vote for a *later*-epoch transaction must not count
  // toward a quorum it is no longer part of. (Its votes for transactions of
  // epochs it belonged to remain valid — that is what lets old-epoch
  // certification drain through a retirement.)
  if (!epoch_admits(*t, voter)) return;
  // Every received vote feeds the online vote-consistency invariant —
  // including late ones: a contradiction is a contradiction regardless of
  // whether the outcome is already known here.
  omon_.note_vote(voter, t->id, vote, cl_.now());
  oslot_.record(obs::Counter::kVotesRecv);
  // A re-announced vote reached a site that already decided: answer with
  // the decision so the in-doubt voter can terminate.
  if (answer_if_decided(t, voter)) return;
  auto& st = state_of(t);
  if (st.decided) return;
  ac_->on_vote(t, st, voter, vote);
}

bool Replica::answer_if_decided(const TxnPtr& t, SiteId to) {
  const Outcome* out = known_outcome(t->id);
  if (out == nullptr) return false;
  if (cl_.fault_tolerance_on() && to != id_)
    cl_.send(id_, to, net::DecisionMsg{t, out->committed});
  return true;
}

void Replica::on_decision(const TxnPtr& t, bool commit) {
  maybe_adopt_epoch(t->epoch);
  decide(t, commit);
}

void Replica::decide(const TxnPtr& t, bool commit, obs::AbortReason reason) {
  if (known_outcome(t->id) != nullptr) return;  // straggler duplicate
  auto& st = state_of(t);
  if (st.decided) return;
  st.decided = true;
  st.committed = commit;
  remember_outcome(t->id,
                   Outcome{commit, commit ? obs::AbortReason::kNone : reason});
  if (auto* tr = cl_.trace())
    tr->decided(t->id, id_, cl_.now(), commit, reason);
  oslot_.record(obs::Counter::kDecisions);
  oslot_.record(commit ? obs::Counter::kTxnCommitted
                       : obs::Counter::kTxnAborted);
  oring_.append(commit ? "commit" : "abort", cl_.now(), id_, t->id.coord,
                t->id.seq);
  omon_.note_decided(id_, t->id, commit, cl_.now());

  // The sweep clears what the engine keeps for it (a Paxos acceptor slot).
  schedule_term_gc(t->id);

  // Algorithm 2 lines 19-24: an in-order commit waits for the head of Q,
  // where process_queue_head() applies it and erases its term state.
  if (commit && ac_->applies_in_order() && st.in_q) {
    process_queue_head();
    return;
  }
  if (st.in_q) remove_from_q(t->id);
  // Decided and out of Q: from here on the decided cache answers for it.
  release_term(term_.find(t->id));
  if (commit) {
    apply_commit(t);
    return;
  }
  // Algorithm 2 lines 25-29.
  finish_coordinator(t, false);
  if (id_ == t->id.coord && cl_.spec().post_abort)
    cl_.spec().post_abort(cl_, *t);
}

void Replica::remember_outcome(const TxnId& id, Outcome o) {
  decided_cache_.emplace(id, o);
  decided_fifo_.push_back(id);
  if (decided_fifo_.size() > kDecidedCacheCap) {
    decided_cache_.erase(decided_fifo_.front());
    decided_fifo_.pop_front();
  }
}

void Replica::schedule_term_gc(const TxnId& id) {
  gc_fifo_.push_back(GcEntry{cl_.now() + kTermGcDelay, id});
  if (!gc_armed_) arm_term_gc();
}

void Replica::arm_term_gc() {
  gc_armed_ = true;
  cl_.run_after(id_, gc_fifo_[gc_head_].due - cl_.now(),
                [this] { sweep_term_gc(); });
}

void Replica::sweep_term_gc() {
  const SimTime now = cl_.now();
  while (gc_head_ < gc_fifo_.size() && gc_fifo_[gc_head_].due <= now) {
    const TxnId id = gc_fifo_[gc_head_++].id;
    auto it = term_.find(id);
    if (it != term_.end() && it->second.in_q) {
      // Still parked in the ordered queue behind an undecided head (its
      // votes may be stuck behind a partition or a crashed site): Q's ids
      // must keep their termination state, so try again later.
      gc_fifo_.push_back(GcEntry{now + kTermGcDelay, id});
      continue;
    }
    // The engine's state rides along (Paxos: the acceptor slot; without
    // this every acceptor leaked one entry per transaction until its FIFO
    // cap evicted it). A pure acceptor has a slot but no termination state
    // at all — the erase must not be gated on term_ holding the id.
    ac_->forget(id);
    if (it != term_.end()) release_term(it);
  }
  // Drop the swept prefix once it is at least half the vector: the entries
  // moved are never more than the pops since the last drop, so a push and
  // its pop stay O(1) amortized.
  if (2 * gc_head_ >= gc_fifo_.size()) {
    gc_fifo_.erase(gc_fifo_.begin(),
                   gc_fifo_.begin() + static_cast<std::ptrdiff_t>(gc_head_));
    gc_head_ = 0;
  }
  gc_armed_ = false;
  if (!gc_fifo_.empty()) arm_term_gc();
}

void Replica::release_term(std::unordered_map<TxnId, TermState>::iterator it) {
  assert(it != term_.end());
  const TxnId id = it->first;
  term_.erase(it);
  cl_.term_released(id_, id);
}

void Replica::process_queue_head() {
  // Replicas apply updates in delivery order (mandatory for SER and above).
  while (!q_.empty()) {
    auto it = term_.find(q_.front());
    assert(it != term_.end());
    TermState& st = it->second;
    if (!st.decided) return;
    const TxnPtr t = std::move(st.txn);
    const bool committed = st.committed;
    release_term(it);  // decided and out of Q
    q_.pop_front();
    obs_q_pops_.fetch_add(1, std::memory_order_relaxed);
    cidx_.remove(t->id);
    if (committed) apply_commit(t);
  }
  ac_->on_dequeued();
}

void Replica::remove_from_q(const TxnId& id) {
  auto it = std::find(q_.begin(), q_.end(), id);
  if (it != q_.end()) {
    q_.erase(it);
    obs_q_pops_.fetch_add(1, std::memory_order_relaxed);
    cidx_.remove(id);
    if (auto ts = term_.find(id); ts != term_.end()) ts->second.in_q = false;
    ac_->on_dequeued();
    if (ac_->applies_in_order()) process_queue_head();
  }
}

void Replica::apply_commit(const TxnPtr& t) {
  const TxnRecord& txn = *t;
  const auto& part = cl_.partitioner();
  const SimTime now = cl_.now();

  std::vector<ObjectId> local_ws;
  for (ObjectId o : txn.ws)
    if (part.is_local(id_, o)) local_ws.push_back(o);

  oslot_.record(obs::Counter::kApplies);
  oring_.append("apply", now, id_, txn.id.coord, txn.id.seq);
  // Store installs, the replica-wide version index and S-DUR's committed
  // readers are exactly the state shard certifier sub-votes read. The apply
  // exclusion makes this mutation safe against them: the live sharded
  // backend holds every shard lock of this site around `fn`, the sim and
  // the serial pipeline run `fn` inline (byte-identical).
  cl_.with_apply_exclusion(id_, [&] {
    if (!local_ws.empty()) {
      // All partitions the transaction writes (not only the local ones):
      // the dependence vector must cover the transaction's remote writes
      // too, or snapshot-compatibility tests at other replicas could miss
      // fractures.
      std::vector<PartitionId> parts;
      for (ObjectId o : txn.ws) {
        const PartitionId p = part.partition_of(o);
        if (std::find(parts.begin(), parts.end(), p) == parts.end())
          parts.push_back(p);
      }
      versioning::Stamp stamp = txn.stamp;
      const auto pidx = cl_.oracle().on_apply(id_, stamp, parts, txn.snap);
      for (ObjectId o : local_ws) {
        const PartitionId p = part.partition_of(o);
        const auto k = static_cast<std::size_t>(
            std::find(parts.begin(), parts.end(), p) - parts.begin());
        db_.install(o, store::Version{.writer = txn.id,
                                      .pidx = pidx[k],
                                      .commit_time = now,
                                      .stamp = stamp});
        if (cl_.install_observer())
          cl_.install_observer()(Cluster::InstallEvent{
              .obj = o, .writer = txn.id, .pidx = pidx[k], .site = id_,
              .time = now});
      }
      if (cl_.spec().track_all_objects)
        for (ObjectId o : txn.ws) latest_seq_[o] = stamp.seq;
      // Durable mode: persist the after-values off the critical path.
      if (auto* wal = cl_.wal(id_)) {
        oslot_.record(obs::Counter::kWalAppends);
        wal->append(net::wire::termination(0, local_ws.size(), 16), [] {});
      }
    } else {
      const std::uint64_t seq = cl_.oracle().on_commit_observed(id_);
      if (cl_.spec().track_all_objects && seq != 0)
        for (ObjectId o : txn.ws) latest_seq_[o] = seq;
      // A participant with nothing to apply still learns the transaction's
      // version number (otherwise its vector clock would lag behind the
      // snapshots of transactions that later read here).
      cl_.oracle().on_propagate(id_, txn.stamp);
    }

    if (cl_.spec().track_committed_readers && !txn.read_only()) {
      for (ObjectId o : txn.rs) {
        if (!part.is_local(id_, o)) continue;
        recency_.note_reader(o, ReaderInfo{.origin = txn.stamp.origin,
                                           .seq = txn.stamp.seq,
                                           .commit_time = now});
      }
    }
  });
  if (!local_ws.empty()) {
    // The store mutation is synchronous (so successors certify against it);
    // its CPU cost is charged as a fire-and-forget job — on the write-set
    // shards' applier lanes when lanes are modeled.
    const SimDuration apply_cost =
        cl_.cost().apply_per_obj * static_cast<SimDuration>(local_ws.size());
    cl_.run_apply(id_, t, apply_cost);
    if (auto* tr = cl_.trace()) tr->applied(txn.id, id_, now, apply_cost);
  }

  if (cl_.reconfig_enabled() && !txn.read_only()) {
    // Remember the commit so a later epoch activation can re-run the
    // late-install forwarding below for members that joined between this
    // decision and this replica learning of the new view.
    recent_commits_.push_back(t);
    if (recent_commits_.size() > kRecentCommitCap) recent_commits_.pop_front();
    // Snapshot catch-up stream: while a joiner is prepared (snapshot taken,
    // epoch not yet active), this donor forwards every commit that touches
    // the transferred partitions, so nothing falls between the snapshot and
    // activation.
    for (const auto& reg : stream_to_) {
      if (std::any_of(local_ws.begin(), local_ws.end(), [&](ObjectId o) {
            return std::find(reg.parts.begin(), reg.parts.end(),
                             part.partition_of(o)) != reg.parts.end();
          }))
        send_install(reg.to, t);
    }
    // A transaction certified under an older view commits after newer
    // members joined. They were not in its multicast destinations, so its
    // coordinator forwards the commit.
    if (id_ == txn.id.coord && epoch_ > txn.epoch) forward_installs(t, epoch_);
  }

  finish_coordinator(t, true);
  if (id_ == txn.id.coord && cl_.spec().post_commit)
    cl_.spec().post_commit(cl_, txn);
}

void Replica::finish_coordinator(const TxnPtr& t, bool commit) {
  if (id_ != t->id.coord) return;
  auto it = commit_cbs_.find(t->id);
  if (it == commit_cbs_.end()) return;
  auto cb = std::move(it->second);
  commit_cbs_.erase(it);
  cb(commit);
}

// ---------------------------------------------------------------------------
// Crash-recovery (sim/fault).
// ---------------------------------------------------------------------------

void Replica::on_crash() {
  // Volatile protocol state vanishes with the process.
  q_.clear();
  // Resync the watchdog's queue mirror: an emptied queue has no pending
  // work, so pushes and pops must agree again.
  obs_q_pops_.store(obs_q_pushes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  cidx_.clear();  // mirrors q_ exactly, always
  term_.clear();
  commit_cbs_.clear();
  ac_->on_crash();
  // Membership state is volatile too: the activated epoch, a prepared view,
  // coordinator progress, and any state-transfer bookkeeping are rebuilt
  // from the WAL's reconfiguration records (and epoch gossip) on recovery.
  epoch_ = 0;
  draining_ = false;
  rcfg_.reset();
  pending_ = {};
  transfer_ = {};
  recent_commits_.clear();
  stream_to_.clear();
}

void Replica::on_recover() {
  ++recoveries_;
  auto* wal = cl_.wal(id_);
  if (wal == nullptr) return;

  // Replay the stable log in append (= original delivery) order.
  // Reconfiguration records rebuild membership state: the last logged
  // prepare with no commit/abort after it is an in-flight proposal this
  // coordinator must resume (or abandon through the normal give-up path).
  std::optional<ReconfigCoord> resume;
  std::size_t replayed = 0;
  for (const auto& r : wal->stable()) {
    ++replayed;
    if (r.payload == nullptr) continue;
    if (r.kind == store::WalRecord::Kind::kReconfigPrepare ||
        r.kind == store::WalRecord::Kind::kReconfigCommit ||
        r.kind == store::WalRecord::Kind::kReconfigAbort) {
      const auto v = std::static_pointer_cast<const MembershipView>(r.payload);
      switch (r.kind) {
        case store::WalRecord::Kind::kReconfigPrepare: {
          // Only the coordinator logs prepares, so this replica was driving
          // the change (flag encodes join/retire; the subject is the
          // symmetric difference against the base view).
          ReconfigCoord rc;
          rc.next = *v;
          rc.kind = r.flag ? ReconfigKind::kJoin : ReconfigKind::kRetire;
          const auto& base = cl_.view(v->epoch > 0 ? v->epoch - 1 : 0);
          rc.subject = kNoSite;
          for (SiteId s : r.flag ? v->members : base.members)
            if (r.flag ? !base.contains(s) : !v->contains(s)) {
              rc.subject = s;
              break;
            }
          rc.acked.push_back(id_);
          resume = std::move(rc);
          break;
        }
        case store::WalRecord::Kind::kReconfigCommit:
          cl_.membership().append(*v);
          epoch_ = std::max(epoch_, v->epoch);
          if (resume && resume->next.epoch <= v->epoch) resume.reset();
          break;
        case store::WalRecord::Kind::kReconfigAbort:
          if (resume && resume->next.epoch == v->epoch) resume.reset();
          break;
        default:
          break;
      }
      continue;
    }
    const auto t = std::static_pointer_cast<const TxnRecord>(r.payload);
    switch (r.kind) {
      case store::WalRecord::Kind::kDeliver: {
        if (known_outcome(r.txn) != nullptr) break;
        auto& st = state_of(t);
        // Re-indexed in replay (= delivery) order.
        if (!st.in_q && !st.decided) enqueue(t, st);
        break;
      }
      case store::WalRecord::Kind::kVote: {
        if (known_outcome(r.txn) != nullptr) break;
        auto& st = state_of(t);
        st.voted = true;
        // The logged value is exactly what announce_vote shipped (or was
        // about to ship): final, safe to re-announce.
        st.announced = true;
        st.my_vote = r.flag;
        break;
      }
      case store::WalRecord::Kind::kDecision:
        // No-op when the decision took effect before the crash (the decided
        // cache remembers); otherwise the crash hit between fsync and
        // announcement and the outcome is re-applied here.
        decide(t, r.flag);
        break;
      default:
        break;  // reconfiguration kinds handled above
    }
  }

  if (cl_.reconfig_enabled()) {
    // Recovery also re-reads the shared log of agreed views (in a real
    // deployment: the membership service). Without this, a site that crashed
    // before an activation reached it — e.g. a retiree missing the very view
    // that excludes it — would pin itself to the stale epoch forever, since
    // excluded sites receive no epoch gossip.
    epoch_ = std::max(epoch_, cl_.membership().latest_epoch());
  }

  if (resume) {
    // Coordinator crashed mid-reconfiguration with the prepare on stable
    // storage but no outcome. If the epoch has since been agreed the shared
    // log already has it — adopt. If it is still the next epoch, resume the
    // prepare rounds (participants re-ack idempotently; the give-up path
    // abandons it durably if the cluster cannot be assembled). Anything
    // else can never be agreed — abandon it immediately.
    const EpochId e = resume->next.epoch;
    if (cl_.membership().latest_epoch() >= e) {
      epoch_ = std::max(epoch_, cl_.membership().latest_epoch());
    } else if (e == cl_.membership().latest_epoch() + 1) {
      rcfg_ = std::move(*resume);
      reconfig_round(e, 0);
    } else {
      log_reconfig(store::WalRecord::Kind::kReconfigAbort, resume->next, id_,
                   [] {});
    }
  }

  // Re-announce logged votes whose outcome is unknown, and restart the
  // coordinator's in-doubt resolution for transactions it owns. This pass
  // MUST run before the re-vote pass below: cast_vote marks a transaction
  // voted immediately while the vote's value is recomputed asynchronously,
  // so a re-announce pass running after it would ship the default (false)
  // my_vote for freshly re-voted transactions — a contradictory abort vote
  // the coordinator may count before the real one arrives.
  if (cl_.fault_tolerance_on()) {
    // term_ is hash-ordered; walk it in TxnId order so the re-announcement
    // messages (and the retry/timeout events they schedule) are emitted in
    // a deterministic sequence — recovery must not leak container hash
    // order into the simulated message schedule.
    std::vector<TxnId> in_doubt;
    in_doubt.reserve(term_.size());
    for (const auto& [id, st] : term_)  // gdur-lint: allow(determinism/unordered-iter) key harvest only; sorted before any side effect
      if (!st.decided) in_doubt.push_back(id);
    std::sort(in_doubt.begin(), in_doubt.end());
    for (const TxnId& id : in_doubt) {
      TermState& st = term_.find(id)->second;
      if (st.announced) {
        send_vote_msgs(st.txn, st.my_vote);
        schedule_vote_retry(st.txn, 0);
      }
      if (id.coord == id_) arm_term_timeout(st.txn, 0);
    }
  }

  // Re-vote for rebuilt queue entries whose vote never reached the log.
  ac_->revote();

  // Charge the replay work (one queue operation per log record).
  if (replayed > 0) {
    const auto replay_cost =
        cl_.cost().queue_op * static_cast<SimDuration>(replayed);
    cl_.run_local(id_, replay_cost, [] {});
  }
}

// ---------------------------------------------------------------------------
// Membership / online reconfiguration (core/membership, DESIGN.md §12).
//
// Epochs advance one at a time. The coordinator durably logs a prepare,
// broadcasts it to the base view plus the subject, and commits once a
// majority of the base view acked (a join additionally waits for the
// subject's ack, which doubles as "state transfer complete"; a retire does
// NOT wait for the subject, so a crashed site can be retired). The commit
// record is the decision point: it enters the shared MembershipLog, after
// which activation spreads by explicit kActivate rounds and by epoch gossip
// on every termination-protocol message.
// ---------------------------------------------------------------------------

bool Replica::member_of(EpochId e) const { return cl_.view(e).contains(id_); }

bool Replica::epoch_admits(const TxnRecord& t, SiteId s) {
  maybe_adopt_epoch(t.epoch);
  return cl_.view(t.epoch).contains(s);
}

void Replica::maybe_adopt_epoch(EpochId e) {
  // Seeded misreport (sim::Sabotage::kEpochRegress): claim an epoch one
  // below the activated one — the regression the epoch-monotonicity
  // invariant must catch. Only the monitor's input is perturbed; the
  // protocol state stays healthy.
  if (epoch_ > 0) {
    if (auto* fi = cl_.fault_injector();
        fi != nullptr &&
        fi->consume_sabotage(sim::Sabotage::Kind::kEpochRegress, id_,
                             cl_.now()))
      omon_.note_epoch(id_, epoch_ - 1, cl_.now());
  }
  if (e <= epoch_ || !cl_.membership().has(e)) return;
  activate_epoch(e);
  // Durably remember the activation: without it a crash would roll this
  // site back to an older configuration until the next gossip.
  log_reconfig(store::WalRecord::Kind::kReconfigCommit, cl_.view(e), id_,
               [] {});
}

void Replica::activate_epoch(EpochId e) {
  if (e <= epoch_) return;
  epoch_ = e;
  omon_.note_epoch(id_, e, cl_.now());
  oslot_.record(obs::Counter::kEpochActivations);
  oring_.append("epoch_activate", cl_.now(), id_, e);
  // The prepared state for this (or any older) epoch is resolved.
  if (pending_.view && pending_.view->epoch <= e) {
    pending_ = {};
    draining_ = false;  // a retiree is now fenced by member_of() instead
  }
  // Snapshot streaming for activated epochs ends: the joiner receives
  // termination traffic directly now (late-install forwarding covers
  // transactions still in flight under older epochs).
  std::erase_if(stream_to_, [e](const StreamReg& r) { return r.epoch <= e; });
  // A transaction certified under an older view may have been decided here
  // before this replica learned of the new one — the inline late-install
  // forwarding in apply_commit() compared against the old epoch_ and stayed
  // silent, and the donor's catch-up stream may equally have ended
  // already. Sweep the recently decided commits and ship those installs to
  // the members this activation adds (deduplicated at the receiver).
  for (const auto& t : recent_commits_) {
    if (t->epoch >= e) continue;
    if (id_ != t->id.coord && !has_local_writes(*t)) continue;
    forward_installs(t, e);
  }
}

void Replica::forward_installs(const TxnPtr& t, EpochId e) {
  const auto& part = cl_.partitioner();
  const auto& old_view = cl_.view(t->epoch);
  for (SiteId s : cl_.view(e).members) {
    if (s == id_ || old_view.contains(s)) continue;
    // Replica-wide version indexes (Serrano) make every commit
    // certification-relevant everywhere — new members need the full feed,
    // not just writes they host.
    if (cl_.spec().track_all_objects ||
        std::any_of(t->ws.begin(), t->ws.end(),
                    [&](ObjectId o) { return part.is_local(s, o); }))
      send_install(s, t);
  }
}

void Replica::send_install(SiteId to, const TxnPtr& t) {
  cl_.send_reconfig(
      id_, to,
      ReconfigMsg{.kind = ReconfigMsg::Kind::kInstall,
                  .epoch = t->epoch,
                  .from = id_,
                  .payload = t,
                  .bytes = net::wire::termination(t->rs.size(), t->ws.size(),
                                                  cl_.meta_bytes())});
}

void Replica::log_reconfig(store::WalRecord::Kind kind,
                           const MembershipView& v, SiteId coord,
                           std::function<void()> done) {
  auto* wal = cl_.wal(id_);
  if (wal == nullptr) {
    done();
    return;
  }
  store::WalRecord rec;
  rec.kind = kind;
  // Reconfigurations are replicated commands keyed (coordinator, epoch).
  rec.txn = TxnId{coord, v.epoch};
  // flag encodes the change direction (join grows the view); recovery
  // derives the subject from the symmetric difference against the base.
  rec.flag = v.size() > cl_.view(v.epoch > 0 ? v.epoch - 1 : 0).size();
  rec.epoch = v.epoch;
  rec.payload = std::make_shared<const MembershipView>(v);
  oslot_.record(obs::Counter::kWalAppends);
  wal->append(net::wire::control() + 8u * v.members.size(), std::move(rec),
              std::move(done));
}

bool Replica::reconfig_begin(ReconfigKind kind, SiteId subject) {
  if (!cl_.reconfig_enabled()) return true;  // nothing to reconfigure
  if (rcfg_ || !member_of(epoch_)) return false;
  const MembershipView& base = cl_.membership().latest();
  // Moot changes (joining a member, retiring a non-member) are done already.
  if ((kind == ReconfigKind::kJoin) == base.contains(subject)) return true;
  if (base.epoch != epoch_) {
    // This replica lags the latest agreed view; catch up and let the
    // cluster retry (possibly at another coordinator).
    maybe_adopt_epoch(base.epoch);
    return false;
  }
  ReconfigCoord rc;
  rc.kind = kind;
  rc.subject = subject;
  rc.next = kind == ReconfigKind::kJoin ? base.with_joined(subject)
                                        : base.with_retired(subject);
  rc.acked.push_back(id_);
  rcfg_ = std::move(rc);
  // The proposal is durable before any prepare leaves this site, so a
  // crashed coordinator finds it on recovery and resumes (or abandons it
  // durably) instead of leaving participants prepared forever.
  log_reconfig(store::WalRecord::Kind::kReconfigPrepare, rcfg_->next, id_,
               [this, e = rcfg_->next.epoch] {
                 if (rcfg_ && rcfg_->next.epoch == e) reconfig_round(e, 0);
               });
  return true;
}

void Replica::reconfig_round(EpochId e, int round) {
  if (!rcfg_ || rcfg_->next.epoch != e || rcfg_->decided) return;
  if (round >= kMaxReconfigRounds) {
    reconfig_abort(e);
    return;
  }
  // Participants: every member of the base view, plus the subject.
  const auto view = std::make_shared<const MembershipView>(rcfg_->next);
  for (SiteId s : change_parties(e, {rcfg_->subject})) {
    if (s == id_) continue;
    if (std::ranges::find(rcfg_->acked, s) != rcfg_->acked.end()) continue;
    cl_.send_reconfig(id_, s,
                      ReconfigMsg{.kind = ReconfigMsg::Kind::kPrepare,
                                  .epoch = e,
                                  .from = id_,
                                  .view = view,
                                  .change = rcfg_->kind,
                                  .subject = rcfg_->subject,
                                  .bytes = 8u * view->members.size()});
  }
  after_backoff(round, [this, e, round] { reconfig_round(e, round + 1); });
}

std::vector<SiteId> Replica::change_parties(
    EpochId e, const std::vector<SiteId>& extra) const {
  auto parts = cl_.view(e > 0 ? e - 1 : 0).members;
  for (SiteId s : extra)
    if (std::find(parts.begin(), parts.end(), s) == parts.end())
      parts.push_back(s);
  return parts;
}

void Replica::after_backoff(int round, Task fn) {
  const SimDuration delay =
      kVoteRetry * static_cast<SimDuration>(1 << std::min(round, 3));
  cl_.run_after(id_, delay, [this, fn = std::move(fn)]() mutable {
    if (!cl_.site_down(id_)) fn();
  });
}

void Replica::reconfig_commit(EpochId e) {
  if (!rcfg_ || rcfg_->next.epoch != e || rcfg_->decided) return;
  rcfg_->decided = true;
  const MembershipView next = rcfg_->next;
  log_reconfig(store::WalRecord::Kind::kReconfigCommit, next, id_,
               [this, e, next] {
                 // Decision point: the view is agreed the instant its commit
                 // record is stable, and enters the shared log right here.
                 cl_.membership().append(next);
                 rcfg_.reset();
                 activate_epoch(e);
                 activate_round(e, 0);
               });
}

void Replica::reconfig_abort(EpochId e) {
  if (!rcfg_ || rcfg_->next.epoch != e || rcfg_->decided) return;
  rcfg_->decided = true;
  const MembershipView next = rcfg_->next;
  const SiteId subject = rcfg_->subject;
  log_reconfig(store::WalRecord::Kind::kReconfigAbort, next, id_,
               [this, e, subject] {
                 rcfg_.reset();
                 for (SiteId s : change_parties(e, {subject})) {
                   if (s == id_) continue;
                   cl_.send_reconfig(
                       id_, s,
                       ReconfigMsg{.kind = ReconfigMsg::Kind::kAbort,
                                   .epoch = e,
                                   .from = id_,
                                   .bytes = 8});
                 }
               });
}

void Replica::activate_round(EpochId e, int round) {
  if (round >= kActivateRounds) return;
  const MembershipView& v = cl_.view(e);
  const auto view = std::make_shared<const MembershipView>(v);
  // Announce to every participant of the change: the new view's members and
  // the base view's (so a retiree learns the view that excludes it).
  for (SiteId s : change_parties(e, v.members)) {
    if (s == id_) continue;
    cl_.send_reconfig(id_, s,
                      ReconfigMsg{.kind = ReconfigMsg::Kind::kActivate,
                                  .epoch = e,
                                  .from = id_,
                                  .view = view,
                                  .bytes = 8u * view->members.size()});
  }
  after_backoff(round, [this, e, round] { activate_round(e, round + 1); });
}

void Replica::on_reconfig(ReconfigMsg m) {
  if (!cl_.reconfig_enabled()) return;
  switch (m.kind) {
    case ReconfigMsg::Kind::kPrepare:
      handle_prepare(m);
      break;
    case ReconfigMsg::Kind::kAck: {
      if (!rcfg_ || rcfg_->next.epoch != m.epoch || rcfg_->decided) return;
      if (std::ranges::find(rcfg_->acked, m.from) == rcfg_->acked.end())
        rcfg_->acked.push_back(m.from);
      if (m.from == rcfg_->subject) rcfg_->joiner_acked = true;
      // Agreement: a majority of the base view acked, and — for a join —
      // the subject finished its state transfer. A retire deliberately does
      // not wait for the subject: crashed sites must be retirable.
      const MembershipView& base = cl_.view(m.epoch > 0 ? m.epoch - 1 : 0);
      int base_acks = 0;
      for (SiteId s : rcfg_->acked)
        if (base.contains(s)) ++base_acks;
      const bool joiner_ok =
          rcfg_->kind != ReconfigKind::kJoin || rcfg_->joiner_acked;
      if (base_acks >= base.majority() && joiner_ok) reconfig_commit(m.epoch);
      break;
    }
    case ReconfigMsg::Kind::kActivate:
      maybe_adopt_epoch(m.epoch);
      break;
    case ReconfigMsg::Kind::kAbort: {
      if (pending_.view && pending_.view->epoch == m.epoch) {
        if (pending_.subject == id_ && pending_.kind == ReconfigKind::kRetire)
          draining_ = false;
        pending_ = {};
        transfer_ = {};
      }
      std::erase_if(stream_to_,
                    [&m](const StreamReg& r) { return r.epoch == m.epoch; });
      break;
    }
    case ReconfigMsg::Kind::kSnapRequest:
      handle_snap_request(m);
      break;
    case ReconfigMsg::Kind::kSnapReply:
      handle_snap_reply(m);
      break;
    case ReconfigMsg::Kind::kInstall:
      // A forwarded commit is an agreed outcome: decide() installs the
      // writes and caches the decision (a redelivery is then a no-op).
      if (auto t = std::static_pointer_cast<const TxnRecord>(m.payload))
        decide(t, true);
      break;
  }
}

void Replica::handle_prepare(const ReconfigMsg& m) {
  const auto ack = [this, &m] { send_ack(m.from, m.epoch); };
  if (epoch_ >= m.epoch) {
    // Stale or already-activated prepare: re-ack so a recovering
    // coordinator's rounds terminate.
    ack();
    return;
  }
  if (pending_.view && m.view && pending_.view->epoch == m.epoch &&
      pending_.view->members != m.view->members) {
    // Promise: this site already acked a different proposal for the same
    // epoch. Acking both could let two conflicting views each gather an
    // (intersecting) majority — stay silent and let one proposer give up.
    return;
  }
  pending_ = {m.view, m.change, m.subject, m.from};
  if (m.subject == id_ && m.change == ReconfigKind::kRetire) {
    // Retirement drains this site: new update submissions are refused while
    // in-flight certification completes. The site leaves quorums only when
    // the new view activates.
    draining_ = true;
    ack();
    return;
  }
  if (m.subject == id_ && m.change == ReconfigKind::kJoin) {
    if (transfer_.done && transfer_.epoch == m.epoch) {
      ack();  // a lost ack: the transfer already completed
      return;
    }
    // (Re)start the state transfer. Every prepare round restarts it from
    // scratch — that is the retry path for lost snapshot messages and for
    // donors (or this joiner) crashing mid-transfer.
    transfer_ = {.epoch = m.epoch};
    const MembershipView& base = cl_.view(m.epoch > 0 ? m.epoch - 1 : 0);
    const auto& part = cl_.partitioner();
    // Group my hosted partitions by donor: the first live base-view member
    // replicating the partition. A partition whose only replica is this
    // site has no donor and nothing to transfer; one whose donors are all
    // currently down must wait for the next prepare round.
    std::vector<std::pair<SiteId, std::vector<PartitionId>>> donors;
    for (PartitionId p = 0; p < part.partitions(); ++p) {
      const auto sites = part.sites_of(p);
      if (std::find(sites.begin(), sites.end(), id_) == sites.end()) continue;
      SiteId donor = kNoSite;
      bool other_replica = false;
      for (SiteId s : sites) {
        if (s == id_ || !base.contains(s)) continue;
        other_replica = true;
        if (cl_.site_down(s)) continue;
        donor = s;
        break;
      }
      if (donor == kNoSite) {
        if (other_replica) return;  // all donors down: wait for a retry
        continue;                   // sole replica: nothing to transfer
      }
      auto it = std::find_if(donors.begin(), donors.end(),
                             [donor](const auto& d) { return d.first == donor; });
      if (it == donors.end())
        donors.push_back({donor, {p}});
      else
        it->second.push_back(p);
    }
    if (donors.empty()) {
      transfer_.done = true;
      ack();
      return;
    }
    for (auto& [donor, ps] : donors) {
      transfer_.waiting.push_back(donor);
      const std::uint64_t bytes = 8u * ps.size();
      cl_.send_reconfig(id_, donor,
                        ReconfigMsg{.kind = ReconfigMsg::Kind::kSnapRequest,
                                    .epoch = m.epoch,
                                    .from = id_,
                                    .parts = std::move(ps),
                                    .bytes = bytes});
    }
    return;  // the ack is deferred until every snapshot reply arrived
  }
  ack();
}

void Replica::handle_snap_request(const ReconfigMsg& m) {
  // Build the snapshot in one handler (atomic under the single-threaded
  // site contract): the requested partitions' chains, the replica-wide
  // version-index entries, and the WAL tail — then mark the log and
  // compact it, making the shipped state the new snapshot point.
  const auto& part = cl_.partitioner();
  auto snap = std::make_shared<StoreSnapshot>();
  for (ObjectId o : db_.object_ids_sorted()) {
    const PartitionId p = part.partition_of(o);
    if (std::find(m.parts.begin(), m.parts.end(), p) == m.parts.end())
      continue;
    snap->chains.emplace_back(o, *db_.chain(o));
    if (auto it = latest_seq_.find(o); it != latest_seq_.end())
      snap->latest_seq.emplace_back(o, it->second);
  }
  if (auto* wal = cl_.wal(id_)) {
    snap->wal_tail = wal->serialize_tail();
    wal->mark_snapshot();
    wal->compact();
  }
  // Stream every subsequent apply of these partitions to the joiner until
  // its epoch activates (a re-request just resets the registration).
  std::erase_if(stream_to_,
                [&m](const StreamReg& r) { return r.to == m.from; });
  stream_to_.push_back(StreamReg{m.from, m.epoch, m.parts});

  std::uint64_t bytes = net::wire::control() + snap->wal_tail.size();
  bytes += snap->chains.size() * (net::wire::kKey + net::wire::kPayload + 32);
  // Snapshot assembly costs real CPU at the donor (one apply-sized charge
  // per shipped object), off the reply's critical path.
  const SimDuration cost =
      cl_.cost().apply_per_obj * static_cast<SimDuration>(snap->chains.size());
  cl_.run_local(id_, cost, [] {});

  cl_.send_reconfig(id_, m.from,
                    ReconfigMsg{.kind = ReconfigMsg::Kind::kSnapReply,
                                .epoch = m.epoch,
                                .from = id_,
                                .payload = std::move(snap),
                                .bytes = bytes});
}

void Replica::handle_snap_reply(const ReconfigMsg& m) {
  auto& waiting = transfer_.waiting;
  if (m.epoch != transfer_.epoch || transfer_.done) return;
  const auto it = std::find(waiting.begin(), waiting.end(), m.from);
  if (it == waiting.end()) return;  // straggler from an old round
  waiting.erase(it);

  const auto snap = std::static_pointer_cast<const StoreSnapshot>(m.payload);
  for (const auto& [o, chain] : snap->chains) {
    if (!chain.empty())
      // Advance this site's clocks past the adopted versions BEFORE they
      // land, so snapshots minted here can actually see them (a joiner
      // starting at vector time zero would find every adopted version
      // invisible).
      cl_.oracle().on_propagate(id_, chain.latest().stamp);
    db_.adopt_chain(o, chain);
  }
  if (cl_.spec().track_all_objects)
    for (const auto& [o, s] : snap->latest_seq)
      latest_seq_[o] = std::max(latest_seq_[o], s);
  // WAL-tail catch-up: adopt the donor's decided outcomes so straggler
  // votes and redelivered terminations are answered with the decision
  // instead of reopening certification here.
  for (const auto& rec : store::deserialize_records(snap->wal_tail)) {
    if (rec.kind != store::WalRecord::Kind::kDecision) continue;
    if (decided_cache_.count(rec.txn) != 0) continue;
    remember_outcome(rec.txn, Outcome{rec.flag, rec.flag
                                                    ? obs::AbortReason::kNone
                                                    : obs::AbortReason::kCertConflict});
  }
  if (waiting.empty()) {
    transfer_.done = true;
    joiner_maybe_ack();
  }
}

void Replica::joiner_maybe_ack() {
  if (!transfer_.done || pending_.coord == kNoSite) return;
  send_ack(pending_.coord, transfer_.epoch);
}

void Replica::send_ack(SiteId to, EpochId e) {
  cl_.send_reconfig(id_, to,
                    ReconfigMsg{.kind = ReconfigMsg::Kind::kAck,
                                .epoch = e,
                                .from = id_,
                                .bytes = 8});
}

}  // namespace gdur::core

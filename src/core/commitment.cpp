#include "core/commitment.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "core/cluster.h"
#include "core/replica.h"
#include "net/wire.h"

namespace gdur::core {

Commitment::Commitment(Replica& r) : r_(r), cl_(r.cluster()) {}

void Commitment::announce(const TxnPtr& t, bool v) {
  r_.send_vote_msgs(t, v);
  // A lost vote can leave the transaction in doubt everywhere; keep
  // re-announcing with backoff until an outcome is known.
  if (cl_.fault_tolerance_on()) r_.schedule_vote_retry(t, 0);
}

// Group communication (Algorithm 3).

class GroupCommit final : public Commitment {
 public:
  using Commitment::Commitment;

  void on_enqueued(const TxnPtr& /*t*/, TermState& /*st*/) override {
    try_votes();
  }
  void on_dequeued() override { try_votes(); }
  void revote() override { try_votes(); }
  [[nodiscard]] bool applies_in_order() const override {
    return cl_.spec().wait_head_of_queue;
  }

  void send_vote(const TxnPtr& t, bool v) override {
    // Algorithm 3 lines 5-6: vote to replicas(vote_recv_obj) + coord.
    const auto& spec = cl_.spec();
    const auto cs = certifying_objects(spec, *t, cl_.partitioner());
    std::vector<SiteId> dests = cl_.view(t->epoch).filter(
        cl_.partitioner().replicas_of(vote_objects(spec.vote_recv, cs, *t)));
    if (std::find(dests.begin(), dests.end(), t->id.coord) == dests.end())
      dests.push_back(t->id.coord);
    for (SiteId d : dests) cl_.send(r_.site(), d, net::VoteMsg{t, v});
  }

  void announce(const TxnPtr& t, bool v) override {
    if (cl_.spec().vote_snd == VoteScope::kLocalObjects) {
      // Serrano: every replica certifies locally (deterministically, thanks
      // to total order + the replica-wide version index) and decides
      // without exchanging votes.
      r_.decide(t, v);
      return;
    }
    Commitment::announce(t, v);
    if (r_.has_local_writes(*t)) return;
    // A participant with nothing to apply does not need the outcome:
    // ordering was enforced before the vote, so it leaves Q now and drops
    // its record. It may never hear the outcome either (votes flow to the
    // write-set replicas), so the term-state GC erases its flags and tally
    // (the coordinator still tallies here, and decide() erases it there).
    if (r_.known_outcome(t->id) == nullptr) {
      auto& st = r_.state_of(t);
      if (st.in_q) r_.remove_from_q(t->id);
      st.txn.reset();
    }
    if (r_.site() != t->id.coord) r_.schedule_term_gc(t->id);
  }

  void on_vote(const TxnPtr& t, TermState& st, SiteId voter,
               bool vote) override {
    // Under online reconfiguration only certification-leader votes count
    // (Cluster::cert_leader; DESIGN.md §12.4): a joiner's verdict can
    // diverge from the established replicas', and counting it would let
    // sites decide the same transaction differently.
    const auto& spec = cl_.spec();
    const auto& part = cl_.partitioner();
    const auto vote_snd = [&] {
      return vote_objects(spec.vote_snd, certifying_objects(spec, *t, part),
                          *t);
    };
    const auto leader = [&](ObjectId o) {
      return cl_.cert_leader(part.partition_of(o), t->epoch);
    };
    if (cl_.reconfig_enabled()) {
      const ObjSet snd = vote_snd();
      if (std::none_of(snd.begin(), snd.end(),
                       [&](ObjectId o) { return leader(o) == voter; }))
        return;
    }
    auto& tl = tally<VoteTally>(st);
    auto& yes = tl.voters;
    if (!vote) {
      tl.all_true = false;
    } else if (std::find(yes.begin(), yes.end(), voter) == yes.end()) {
      yes.push_back(voter);
    }
    if (!tl.all_true) {
      r_.decide(t, false);
      return;
    }
    // outcome(T) = true once every object in vote_snd_obj(T) is covered by
    // a positive vote from one of its replicas (under reconfiguration: from
    // its partition's leader).
    for (ObjectId o : vote_snd()) {
      const bool covered =
          cl_.reconfig_enabled()
              ? std::find(yes.begin(), yes.end(), leader(o)) != yes.end()
              : std::any_of(yes.begin(), yes.end(),
                            [&](SiteId s) { return part.is_local(s, o); });
      if (!covered) return;  // outcome still ⊥
    }
    r_.decide(t, true);
  }

  void on_timeout(const TxnPtr& t, int round) override {
    // Every site decides from vote quorums, so a unilateral abort could
    // contradict a commit decided elsewhere (DESIGN.md §6.3). Re-announce
    // the vote — decided sites answer with the outcome — and keep waiting.
    // Only an announced vote is final: before that my_vote is a default.
    auto it = r_.term_.find(t->id);
    if (it != r_.term_.end() && it->second.announced)
      r_.send_vote_msgs(t, it->second.my_vote);
    if (round + 1 < Replica::kMaxVoteRetries)
      r_.arm_term_timeout(t, round + 1);
  }

 private:
  /// Algorithm 3 lines 1-3: T may be certified once it commutes with every
  /// transaction preceding it in Q.
  void try_votes() {
    for (const TxnId& id : r_.q_) {
      const auto it = r_.term_.find(id);
      if (it == r_.term_.end()) continue;
      TermState& st = it->second;
      if (st.voted) continue;
      if (!r_.queued_conflict(*st.txn, st.q_pos, /*preceding_only=*/true))
        r_.cast_vote(st.txn, false);
    }
  }
};

// What 2PC and Paxos Commit share: the coordinator decides.

class CoordinatorCommit : public Commitment {
 public:
  using Commitment::Commitment;

  void on_enqueued(const TxnPtr& t, TermState& st) override {
    // Algorithm 4 lines 1-7: vote immediately; a non-commuting transaction
    // already in Q triggers a preemptive abort.
    r_.cast_vote(t,
                 r_.queued_conflict(*t, st.q_pos, /*preceding_only=*/false));
  }

  void revote() override {
    for (const TxnId& id : r_.q_) {
      const auto it = r_.term_.find(id);
      if (it == r_.term_.end()) continue;
      TermState& st = it->second;
      if (!st.voted && !st.decided) on_enqueued(st.txn, st);
    }
  }

  void on_timeout(const TxnPtr& t, int /*round*/) override {
    // Presumed abort: this coordinator is the only site that decides, so
    // resolving an in-doubt transaction as aborted cannot contradict a
    // commit decided elsewhere.
    presume_abort(t);
  }

 protected:
  /// A vote for a transaction this coordinator has no trace of: the crash
  /// wiped it before it terminated. Classic presumed abort — no decision on
  /// record means abort. Returns whether it aborted `t`.
  bool abort_if_wiped(const TxnPtr& t) {
    if (!cl_.fault_tolerance_on() || r_.recoveries_ == 0 ||
        r_.commit_cbs_.contains(t->id))
      return false;
    presume_abort(t);
    return true;
  }

  /// The coordinator's decision, sent to every participant. Under faults
  /// it is forced to the log first (§5.3), so a recovering coordinator
  /// re-announces rather than re-deciding (possibly differently).
  void decide_and_broadcast(const TxnPtr& t, bool commit) {
    auto finish = [this, t, commit] {
      if (r_.known_outcome(t->id) != nullptr) return;  // timeout won the race
      broadcast(t, commit);
      r_.decide(t, commit);
    };
    auto* wal = cl_.wal(r_.site());
    if (wal == nullptr || cl_.fault_injector() == nullptr) {
      finish();
      return;
    }
    r_.omon_.note_wal_decision(r_.site(), t->id, commit, cl_.now());
    r_.oslot_.record(obs::Counter::kWalAppends);
    wal->append(net::wire::decision() + 16,
                store::WalRecord{store::WalRecord::Kind::kDecision, t->id,
                                 commit, t->epoch, t},
                std::move(finish));
  }

  /// Counts `voter`'s vote on `t` once; decides when every participant (the
  /// termination's multicast destinations) voted.
  void count_vote(VoteTally& tl, const TxnPtr& t, SiteId voter, bool vote) {
    if (tl.expected == 0)
      tl.expected = static_cast<int>(cl_.participants(*t).size());
    if (std::ranges::find(tl.voters, voter) != tl.voters.end())
      return;  // duplicate from a protocol-level retry
    tl.voters.push_back(voter);
    tl.all_true = tl.all_true && vote;
    if (static_cast<int>(tl.voters.size()) < tl.expected) return;
    decide_and_broadcast(t, tl.all_true);
  }

 private:
  void presume_abort(const TxnPtr& t) {
    ++r_.timeout_aborts_;
    broadcast(t, false);
    r_.decide(t, false, obs::AbortReason::kPresumedAbort);
  }

  void broadcast(const TxnPtr& t, bool commit) {
    for (SiteId d : cl_.participants(*t))
      if (d != r_.site()) cl_.send(r_.site(), d, net::DecisionMsg{t, commit});
  }
};

// Two-phase commit (Algorithm 4).

class TwoPhaseCommit final : public CoordinatorCommit {
 public:
  using CoordinatorCommit::CoordinatorCommit;

  void send_vote(const TxnPtr& t, bool v) override {
    cl_.send(r_.site(), t->id.coord, net::VoteMsg{t, v});
  }

  void on_vote(const TxnPtr& t, TermState& st, SiteId voter,
               bool vote) override {
    // Algorithm 4 lines 8-10 (only the coordinator receives votes).
    assert(r_.site() == t->id.coord);
    if (!abort_if_wiped(t)) count_vote(tally<VoteTally>(st), t, voter, vote);
  }
};

// Paxos Commit.

class PaxosCommit final : public CoordinatorCommit {
 public:
  using CoordinatorCommit::CoordinatorCommit;

  void send_vote(const TxnPtr& t, bool v) override {
    // The participant's vote is the value of its own Paxos instance;
    // propose it to every acceptor (phase 2a). The acceptor set — and with
    // it the majority — is the membership view of the transaction's epoch.
    for (SiteId a : cl_.view(t->epoch).members)
      cl_.send(r_.site(), a, net::Paxos2aMsg{t, v});
  }

  void on_paxos_2a(const TxnPtr& t, SiteId participant, bool vote) override {
    // Only acceptors of the transaction's view may accept: an acceptance
    // from outside it would never be counted anyway (see on_paxos_2b).
    if (!r_.epoch_admits(*t, r_.site())) return;
    // The proposed vote is `participant`'s announced certification verdict
    // — feed it to the vote-consistency invariant like a direct vote.
    r_.omon_.note_vote(participant, t->id, vote, cl_.now());
    r_.oslot_.record(obs::Counter::kVotesRecv);
    // Acceptor: accept the first value proposed for (t, participant). The
    // participant is the only proposer at ballot 0, so conflicts cannot
    // arise; re-proposals are idempotent.
    auto [it, inserted] = acc_.try_emplace(t->id);
    if (inserted) {
      acc_fifo_.push_back(t->id);
      if (acc_fifo_.size() > kAcceptorCap) {
        acc_.erase(acc_fifo_.front());
        acc_fifo_.pop_front();
      }
      // Retention: a pure acceptor never reaches decide(), which arms the
      // term-state GC everywhere else (the coordinator learns and decides).
      if (r_.site() != t->id.coord) r_.schedule_term_gc(t->id);
    }
    const bool accepted =
        it->second.try_emplace(participant, vote).first->second;
    // Phase 2b: report the acceptance to the coordinator (the learner). A
    // re-proposed 2a (protocol retry after loss) is re-acked with the value
    // accepted first — idempotent at the learner, and without it a retried
    // instance could never close.
    cl_.send(r_.site(), t->id.coord,
             net::Paxos2bMsg{t, participant, accepted});
  }

  void on_paxos_2b(const TxnPtr& t, SiteId participant, bool vote,
                   SiteId acceptor) override {
    // Acceptances count only from acceptors of the transaction's view, and
    // instances only from participants of it. A re-acked instance of a
    // decided transaction tells the participant in doubt the outcome.
    if (!r_.epoch_admits(*t, acceptor) ||
        !cl_.view(t->epoch).contains(participant) ||
        r_.answer_if_decided(t, participant))
      return;
    auto& st = r_.state_of(t);
    auto& tl = tally<PaxosTally>(st);
    const auto& closed = tl.votes.voters;
    if (st.decided || std::ranges::find(closed, participant) != closed.end())
      return;
    if (abort_if_wiped(t)) return;
    const std::pair ack{participant, acceptor};
    if (std::find(tl.acks.begin(), tl.acks.end(), ack) != tl.acks.end())
      return;  // duplicate re-ack
    tl.acks.push_back(ack);
    if (std::count_if(tl.acks.begin(), tl.acks.end(), [&](const auto& a) {
          return a.first == participant;
        }) < cl_.view(t->epoch).majority())
      return;
    // This participant's instance is chosen: its value is its vote.
    count_vote(tl.votes, t, participant, vote);
  }

  void on_crash() override {
    acc_.clear();
    acc_fifo_.clear();
  }
  // Past the straggler window the learner answers a re-proposal from its
  // decided cache, and re-accepting it is idempotent. (acc_fifo_ keeps the
  // id; the cap's erase of a dropped key is a no-op.)
  void forget(const TxnId& id) override { acc_.erase(id); }
  [[nodiscard]] std::size_t acceptor_table_size() const override {
    return acc_.size();
  }

 private:
  // Acceptor state: first accepted vote per (txn, participant). The FIFO
  // cap only backstops transactions this site accepted for but never
  // terminated; forget() erases the rest.
  std::unordered_map<TxnId, std::unordered_map<SiteId, bool>> acc_;
  std::deque<TxnId> acc_fifo_;
  static constexpr std::size_t kAcceptorCap = 100'000;
};

std::unique_ptr<Commitment> Commitment::make(Replica& r) {
  switch (r.cluster().spec().ac) {
    case AcKind::kGroupComm:
      return std::make_unique<GroupCommit>(r);
    case AcKind::kTwoPhaseCommit:
      return std::make_unique<TwoPhaseCommit>(r);
    case AcKind::kPaxosCommit:
      return std::make_unique<PaxosCommit>(r);
  }
  return nullptr;
}

}  // namespace gdur::core

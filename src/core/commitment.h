// Commitment — the atomic-commitment realization point (AC, §5).
//
// A Replica builds one engine from spec.ac and hands it every AC-specific
// step: when to vote, where votes go, how they are tallied into an outcome,
// what a termination timeout does, and what recovery re-votes. The engines
// (commitment.cpp) are GroupCommit (Algorithm 3), TwoPhaseCommit
// (Algorithm 4) and PaxosCommit; DESIGN.md §3 describes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/transaction.h"

namespace gdur::core {

class Cluster;
class Replica;

/// Votes counted for one transaction, deduped (re-announcements repeat
/// votes). GroupCommit keeps its yes voters here, and a counted no clears
/// `all_true`; the TwoPhaseCommit coordinator keeps every voter, out of
/// `expected` participants.
struct VoteTally {
  std::vector<SiteId> voters;
  int expected = 0;
  bool all_true = true;
};

/// PaxosCommit learner: the (participant, acceptor) acceptances; a
/// participant's instance accepted by a majority counts as its 2PC vote.
struct PaxosTally {
  std::vector<std::pair<SiteId, SiteId>> acks;
  VoteTally votes;
};

/// One transaction's termination state at one replica: what every AC uses,
/// plus the running engine's tally.
struct TermState {
  TxnPtr txn;
  std::uint64_t q_pos = 0;  // enqueue position (= ConflictIndex position)
  bool in_q = false;
  bool voted = false;      // cast_vote ran (value may still be computing)
  bool announced = false;  // my_vote is final: announced or WAL-replayed
  bool my_vote = false;    // remembered for re-announcement under faults
  bool decided = false;
  bool committed = false;
  std::variant<std::monostate, VoteTally, PaxosTally> tally;
};

class Commitment {
 public:
  /// The engine `r`'s spec names (ProtocolSpec::ac).
  [[nodiscard]] static std::unique_ptr<Commitment> make(Replica& r);
  explicit Commitment(Replica& r);
  virtual ~Commitment() = default;
  Commitment(const Commitment&) = delete;
  Commitment& operator=(const Commitment&) = delete;

  // --- vote ---
  /// `t` (state `st`) entered Q at delivery: cast what may be cast now.
  virtual void on_enqueued(const TxnPtr& t, TermState& st) = 0;
  /// A transaction left Q.
  virtual void on_dequeued() {}
  /// Ships this site's vote `v` on `t` (first announcement or a resend).
  virtual void send_vote(const TxnPtr& t, bool v) = 0;
  /// `v` is final: ships it, and re-announces it while faults can lose it.
  virtual void announce(const TxnPtr& t, bool v);

  // --- tally ---
  /// A vote past the epoch fence, for a transaction undecided here.
  virtual void on_vote(const TxnPtr& /*t*/, TermState& /*st*/,
                       SiteId /*voter*/, bool /*vote*/) {}
  /// Paxos Commit phase 2a (participant `participant` proposes its vote to
  /// this acceptor) and phase 2b (`acceptor` accepted it; the coordinator
  /// learns the instance). Other engines never receive them.
  virtual void on_paxos_2a(const TxnPtr& /*t*/, SiteId /*participant*/,
                           bool /*vote*/) {}
  virtual void on_paxos_2b(const TxnPtr& /*t*/, SiteId /*participant*/,
                           bool /*vote*/, SiteId /*acceptor*/) {}
  /// A decided commit waits for the head of Q before it applies.
  [[nodiscard]] virtual bool applies_in_order() const { return false; }

  // --- timeout ---
  /// The coordinator's termination timeout fired with `t` still in doubt.
  virtual void on_timeout(const TxnPtr& t, int round) = 0;

  // --- recover ---
  /// After WAL replay: votes for queued transactions whose vote never
  /// reached the log.
  virtual void revote() = 0;
  /// The engine's own per-transaction state is lost in a crash, and erased
  /// with a transaction's term state.
  virtual void on_crash() {}
  virtual void forget(const TxnId& /*id*/) {}
  /// Paxos acceptor slots held (retention probe; 0 for the other ACs).
  [[nodiscard]] virtual std::size_t acceptor_table_size() const { return 0; }

 protected:
  /// The running engine's tally in `st`, created on first use.
  template <class T>
  [[nodiscard]] static T& tally(TermState& st) {
    if (!std::holds_alternative<T>(st.tally)) st.tally.template emplace<T>();
    return std::get<T>(st.tally);
  }

  Replica& r_;
  Cluster& cl_;
};

}  // namespace gdur::core

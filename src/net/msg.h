// Inter-site message vocabulary: everything one site sends another, as
// plain data in one variant, shipped by both backends (core::Cluster::send).
//
// A message names its transaction by pointer: the simulator hands the
// record itself over, while the codec ships only what the receiver needs
// (the id, the snapshot, or the whole record). Large payloads sit behind
// shared pointers, so a Msg stays a few words wide and the copies a
// multicast fans out share one record.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/transaction.h"
#include "net/wire.h"
#include "obs/events.h"
#include "store/mv_store.h"

namespace gdur::net {

/// A group-communication message: a termination record and its addressing,
/// shared by every copy in flight.
struct McastMsg {
  std::uint64_t id = 0;         // globally unique (caller-assigned)
  SiteId origin = kNoSite;      // sending site
  std::vector<SiteId> dests{};  // destination sites, sorted, unique
  /// Sites whose timestamp proposals order the message (SkeenMulticast).
  /// Destinations are replica *groups*: one member per group — its primary
  /// — proposes on the group's behalf, so the failure of another member
  /// does not block ordering. Empty means every destination proposes.
  std::vector<SiteId> proposers{};
  std::uint64_t bytes = 0;  // analytic wire size of the termination payload
  core::TxnPtr txn{};
};
using McastPtr = std::shared_ptr<const McastMsg>;

// Every struct below names its observability class and its analytic wire
// size; `meta` is the versioning metadata the spec attaches to messages
// (core::Cluster::meta_bytes). The sender is implicit: receivers learn it
// from the link.

// --- termination traffic (core::Replica) -----------------------------------

/// A certification vote (GC participant vote, or 2PC vote to the
/// coordinator). The voter is the sender.
struct VoteMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kVote;
  core::TxnPtr txn;
  bool vote = false;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return wire::vote(); }
};

/// 2PC / Paxos outcome, or a decided site answering an in-doubt voter.
struct DecisionMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kDecision;
  core::TxnPtr txn;
  bool commit = false;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::decision();
  }
};

/// Paxos Commit phase 2a: the sender (a participant) proposes its vote to
/// an acceptor.
struct Paxos2aMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kPaxos2a;
  core::TxnPtr txn;
  bool vote = false;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return wire::vote(); }
};

/// Paxos Commit phase 2b: the sender (an acceptor) accepted `participant`'s
/// vote and tells the coordinator.
struct Paxos2bMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kPaxos2b;
  core::TxnPtr txn;
  SiteId participant = 0;
  bool vote = false;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return wire::vote(); }
};

/// Remote read request (Algorithm 1 line 13): the transaction's snapshot
/// travels with it. `req` correlates the reply at the requester.
struct ReadRequestMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kRemoteRead;
  core::TxnPtr txn;
  ObjectId obj = 0;
  std::uint64_t req = 0;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t meta) const {
    return wire::read_request() + meta;
  }
};

/// Remote read reply: whether a compatible version exists and, unless it is
/// the implicit initial version, the version chosen (its after-value rides
/// along on the wire).
struct ReadReplyMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kReadReply;
  std::uint64_t req = 0;
  bool ok = false;
  std::shared_ptr<const store::Version> version;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t meta) const {
    return wire::read_reply(meta);
  }
};

/// Background propagation of a commit's version number (Walter / S-DUR
/// post_commit).
struct PropagateMsg {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kPropagation;
  std::shared_ptr<const versioning::Stamp> stamp;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control() + 16;
  }
};

// --- group communication (comm/) ------------------------------------------

/// Skeen step 1: the multicast itself, origin -> each destination.
struct SkeenStep1 {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kTermination;
  McastPtr msg;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return msg->bytes; }
};

/// A destination's timestamp proposal (ts, site) for multicast `id`.
struct SkeenProposal {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kOrdering;
  std::uint64_t id = 0;
  std::uint64_t ts = 0;
  SiteId site = 0;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control() + 16;
  }
};

/// Crash recovery: the sender re-requests a missing proposal, attaching its
/// copy of the multicast for a proposer whose step 1 died in a crash.
struct SkeenRetry {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kOrdering;
  McastPtr msg;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control() + msg->bytes;
  }
};

/// Crash recovery: a proposer that already delivered `id` answers a retry
/// with the final timestamp (ts, site).
struct SkeenFinalKey {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kOrdering;
  std::uint64_t id = 0;
  std::uint64_t ts = 0;
  SiteId site = 0;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control() + 16;
  }
};

/// Fault-tolerant mode: the sender's proposal (or, with `delivery`, its
/// delivery decision) for `id`, logged at the witness site; the witness
/// echoes it back with `echo` set.
struct SkeenWitness {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kOrdering;
  std::uint64_t id = 0;
  bool delivery = false;
  bool echo = false;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control();
  }
};

/// AB step 1: the message, origin -> sequencer.
struct AbSubmit {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kTermination;
  McastPtr msg;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return msg->bytes; }
};

/// AB step 2: the sequencer's order assignment, sequencer -> every site.
struct AbSequenced {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kTermination;
  McastPtr msg;
  std::uint64_t seq = 0;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return msg->bytes + wire::control();
  }
};

/// AB step 3: a site acknowledges sequence number `seq` to every site.
struct AbAck {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kOrdering;
  std::uint64_t seq = 0;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const {
    return wire::control();
  }
};

/// Reliable-multicast delivery (2PC / Paxos Commit termination).
struct RmDeliver {
  static constexpr obs::MsgClass kClass = obs::MsgClass::kTermination;
  McastPtr msg;
  [[nodiscard]] std::uint64_t bytes(std::uint64_t) const { return msg->bytes; }
};

using Msg = std::variant<VoteMsg, DecisionMsg, Paxos2aMsg, Paxos2bMsg,
                         ReadRequestMsg, ReadReplyMsg, PropagateMsg, SkeenStep1,
                         SkeenProposal, SkeenRetry, SkeenFinalKey, SkeenWitness,
                         AbSubmit, AbSequenced, AbAck, RmDeliver>;

// Every simulated send captures one Msg in its delivery closure.
static_assert(sizeof(Msg) <= 40, "keep large payloads behind pointers");

[[nodiscard]] inline std::uint64_t wire_size(const Msg& m, std::uint64_t meta) {
  return std::visit([meta](const auto& x) { return x.bytes(meta); }, m);
}

[[nodiscard]] inline obs::MsgClass msg_class(const Msg& m) {
  return std::visit(
      [](const auto& x) { return std::decay_t<decltype(x)>::kClass; }, m);
}

}  // namespace gdur::net

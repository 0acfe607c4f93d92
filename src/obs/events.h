// Observability vocabulary: the fixed sets of things a run can be broken
// down into. Kept separate from the recorder so that low-level layers
// (harness metrics, the transport) can tag work without pulling in the
// whole tracing machinery.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gdur::obs {

/// Transaction-lifecycle phases, coordinator perspective. Together they
/// tile a transaction's life from the client's begin request to the final
/// client response (see DESIGN.md §Observability for the exact anchors).
enum class Phase : std::uint8_t {
  kExecute,         // begin request -> commit request (whole execution phase)
  kRead,            // time inside read operations (subset of kExecute)
  kWriteBuffer,     // time inside write-buffer operations (subset of kExecute)
  kXcast,           // submit -> termination delivered at the coordinator
  kCertWait,        // delivered -> certification job starts (queue Q + CPU queue)
  kCertify,         // the certification test itself (CPU service time)
  kVoteCollect,     // local vote cast -> outcome decided (remote votes, 2PC/Paxos rounds)
  kApply,           // applying after-values at the coordinator
  kClientResponse,  // decided -> final response reaches the client
  kCount
};
constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);
[[nodiscard]] const char* phase_name(Phase p);

/// Why a transaction did not commit. kNone marks committed transactions.
enum class AbortReason : std::uint8_t {
  kNone,             // committed
  kCertConflict,     // certification voted no (or preemptive abort in Q)
  kSnapshotFailure,  // execution-phase failure: no compatible version to read
  kTimeout,          // client gave up waiting (outcome unknown)
  kPresumedAbort,    // coordinator resolved an in-doubt txn as aborted (§6.3)
  kCount
};
constexpr std::size_t kAbortReasonCount =
    static_cast<std::size_t>(AbortReason::kCount);
[[nodiscard]] const char* abort_reason_name(AbortReason r);

/// Message taxonomy for per-class counters and message spans. One wire
/// message belongs to exactly one class.
enum class MsgClass : std::uint8_t {
  kControl,      // anything not otherwise classified
  kClientReq,    // client machine -> replica
  kClientResp,   // replica -> client machine
  kRemoteRead,   // read request to a remote replica
  kReadReply,    // read reply (value + versioning metadata)
  kTermination,  // termination message carrying the transaction
  kOrdering,     // ordering traffic (sequencer acks, Skeen proposals, witness)
  kVote,         // certification vote
  kPaxos2a,      // Paxos Commit phase 2a (vote proposal to an acceptor)
  kPaxos2b,      // Paxos Commit phase 2b (acceptance to the learner)
  kDecision,     // commit/abort decision
  kPropagation,  // background version propagation (Walter, S-DUR)
  kCount
};
constexpr std::size_t kMsgClassCount = static_cast<std::size_t>(MsgClass::kCount);
[[nodiscard]] const char* msg_class_name(MsgClass c);

/// Fault-layer events worth a mark on the timeline.
enum class FaultKind : std::uint8_t {
  kDrop,        // delivery attempt lost or blocked
  kRetransmit,  // extra delivery attempt sent
  kExpire,      // message abandoned (broken connection / crash window)
  kCrash,       // site crash with state loss
  kRecovery,    // site finished WAL replay
  kCount
};
[[nodiscard]] const char* fault_kind_name(FaultKind k);

}  // namespace gdur::obs

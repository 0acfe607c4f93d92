// Deterministic, sim-time-stamped tracing and metrics collection.
//
// A TraceRecorder is attached to a cluster (ClusterConfig::trace) and
// receives hook calls from the replicas, the communication layer and the
// transport. It builds three artifacts out of them:
//
//   * per-transaction lifecycle phase breakdowns (obs::TxnPhaseReport),
//     streamed to a sink so the harness can aggregate them into
//     harness::Metrics without this layer depending on the harness;
//   * an event buffer of spans and instants, exportable as Chrome
//     trace-event JSON (chrome://tracing, Perfetto) and as a compact
//     per-transaction text timeline for golden tests;
//   * per-message-class message counts.
//
// Zero-overhead-when-disabled rule: every hook point in the engine is
// guarded by a null-pointer check on the recorder, and no hook schedules
// simulator events or charges CPU — attaching a recorder never changes the
// simulated execution. Because the simulator itself is deterministic, two
// identical seeded runs produce byte-identical trace output.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/events.h"

namespace gdur::obs {

struct TraceConfig {
  /// Keep the full span/instant event buffer (needed for the JSON export
  /// and the text timeline). Off = only phase reports and message counts,
  /// for cheap phase-breakdown measurement on big runs.
  bool spans = true;
  /// Hard cap on buffered events; once reached, further span/instant events
  /// are counted in dropped_events() instead of stored (never silently).
  std::size_t max_events = 1u << 21;
};

/// One transaction's finished lifecycle, coordinator perspective.
struct TxnPhaseReport {
  TxnId id;
  SiteId coord = kNoSite;
  bool read_only = false;
  bool committed = false;
  AbortReason reason = AbortReason::kNone;
  SimTime begin = 0;  // client begin request
  SimTime end = 0;    // final client response (or give-up instant)
  /// Duration per phase; 0 where the phase did not occur (e.g. no apply for
  /// a transaction without local writes, no termination phases for an
  /// execution-phase abort).
  std::array<SimDuration, kPhaseCount> phase{};

  [[nodiscard]] SimDuration of(Phase p) const {
    return phase[static_cast<std::size_t>(p)];
  }
};

/// A buffered trace event. `name`/`cat` are static strings (no ownership).
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant };
  Kind kind = Kind::kInstant;
  const char* name = "";
  const char* cat = "";
  SiteId site = kNoSite;   // exported as pid
  std::uint32_t track = 0; // exported as tid
  SimTime ts = 0;
  SimDuration dur = 0;     // spans only
  TxnId txn{};             // optional: tagged transaction
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig cfg = {}) : cfg_(cfg) {}

  /// Sink invoked with every finished transaction's phase report (set by
  /// the harness to feed harness::Metrics).
  void set_phase_sink(std::function<void(const TxnPhaseReport&)> sink) {
    MutexLock lock(&mu_);
    sink_ = std::move(sink);
  }

  // ------------------------------------------------------------------
  // Transaction lifecycle hooks (workload::client + core::Replica).
  // ------------------------------------------------------------------
  /// Client-side: begin request issued at `begin_req`, transaction record
  /// received back at `now`.
  void txn_started(const TxnId& id, SiteId coord, SimTime begin_req,
                   SimTime now);
  /// Client-side: one read / write-buffer operation over [start, now].
  void txn_op(const TxnId& id, Phase p, SiteId coord, SimTime start,
              SimTime now);
  /// Coordinator: submit(T) — execution is over, termination starts.
  void txn_submitted(const TxnId& id, SiteId site, SimTime now,
                     bool read_only);
  /// Any site: the termination message reached this replica.
  void term_delivered(const TxnId& id, SiteId site, SimTime now);
  /// Any site: certification finished at `now` after `service` CPU time.
  void certified(const TxnId& id, SiteId site, SimTime now,
                 SimDuration service, bool vote);
  /// Any site: outcome known here.
  void decided(const TxnId& id, SiteId site, SimTime now, bool commit,
               AbortReason reason);
  /// Any site: after-values applied (duration = charged apply cost).
  void applied(const TxnId& id, SiteId site, SimTime now, SimDuration dur);
  /// Client-side: terminal response received (or execution abort). Flushes
  /// the transaction's phase report.
  void txn_finished(const TxnId& id, SiteId coord, SimTime now, bool committed,
                    bool read_only, AbortReason reason);
  /// Client-side: gave up waiting; outcome unknown.
  void txn_timed_out(const TxnId& id, SiteId coord, SimTime now);

  // ------------------------------------------------------------------
  // Message + fault hooks (net::Transport, core::Cluster).
  // ------------------------------------------------------------------
  void message(MsgClass cls, SiteId src, SiteId dst, SimTime depart,
               SimTime arrive);
  void fault(FaultKind kind, SiteId site, SiteId peer, SimTime now);

  // ------------------------------------------------------------------
  // Counters.
  // ------------------------------------------------------------------
  [[nodiscard]] std::uint64_t msg_count(MsgClass c) const {
    MutexLock lock(&mu_);
    return msg_count_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t dropped_events() const {
    MutexLock lock(&mu_);
    return dropped_;
  }
  /// Resets the message counts (not the event buffer) — called at the end
  /// of warmup so they line up with the transport's accounting window.
  void reset_counters();

  // ------------------------------------------------------------------
  // Export.
  // ------------------------------------------------------------------
  /// Direct buffer access — only safe once no hooks can fire concurrently
  /// (sim runs, or a live cluster after stop()), which is why it is exempt
  /// from the lock discipline instead of returning a reference it cannot
  /// protect.
  [[nodiscard]] const std::vector<TraceEvent>& events() const
      NO_THREAD_SAFETY_ANALYSIS {
    return events_;  // quiescent-only accessor, see contract above
  }
  /// Chrome trace-event JSON (one {"traceEvents": [...]} object), loadable
  /// in Perfetto / chrome://tracing. Deterministic byte-for-byte.
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Compact per-transaction timeline, one line per finished transaction in
  /// completion order (for golden tests and quick terminal inspection).
  [[nodiscard]] std::string text_timeline() const;

 private:
  /// Coordinator-perspective anchors of one in-flight transaction.
  struct Live {
    SimTime begin = 0;       // client begin request
    SimTime got_record = 0;  // begin response seen by the client
    SimTime submit = 0;      // submit(T) at the coordinator
    SimTime delivered = 0;   // termination delivered at the coordinator
    SimTime cert_start = 0;
    SimTime cert_end = 0;
    SimTime decide = 0;
    SimDuration read_time = 0;
    SimDuration write_time = 0;
    SimDuration apply_time = 0;
    bool read_only = false;
    bool has_term = false;  // submit reached the termination protocol
  };

  void push(const TraceEvent& e) REQUIRES(mu_);
  /// Lane assignment: spreads concurrent transactions across a few tracks
  /// so their spans do not get mis-nested in the viewer.
  [[nodiscard]] static std::uint32_t lane_of(const TxnId& id) {
    return 1 + static_cast<std::uint32_t>(id.seq % 24);
  }
  void flush(const TxnId& id, Live& lv, SiteId coord, SimTime now,
             bool committed, AbortReason reason) REQUIRES(mu_);

  const TraceConfig cfg_;  // immutable after construction, lock-free reads
  /// Serializes every hook and counter read. The simulator calls hooks from
  /// one thread (uncontended fast path); the live runtime calls them from
  /// every site thread.
  mutable Mutex mu_;
  std::function<void(const TxnPhaseReport&)> sink_ GUARDED_BY(mu_);
  std::unordered_map<TxnId, Live> live_ GUARDED_BY(mu_);
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
  std::vector<TxnPhaseReport> reports_ GUARDED_BY(mu_);  // only when cfg_.spans
  std::array<std::uint64_t, kMsgClassCount> msg_count_ GUARDED_BY(mu_){};
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace gdur::obs

// StatsRegistry — always-on, lock-free production telemetry.
//
// PR 2's TraceRecorder captures *everything* (every message, every phase of
// every transaction) and is priced accordingly: it is a debugging tool you
// switch on. This registry is the opposite contract — a fixed, enumerated
// set of counters and fixed-bucket latency histograms cheap enough to leave
// on in a production deployment.
//
// Record-path cost model (DESIGN.md §13): every slot is a pre-allocated
// array of relaxed std::atomic<uint64_t>; `record()` is one fetch_add on a
// cache line owned (in steady state) by the recording thread, `record_value`
// is one bit-scan plus one fetch_add. The record path performs no
// allocation, takes no lock, and never reads a clock — timestamps, where
// needed, are passed in by the caller (the simulator's virtual clock or the
// live runtime's monotonic clock). tools/gdur_lint's obs/hot-path-alloc
// rule enforces this contract textually on every record*/append function in
// src/obs.
//
// Aggregation (snapshot/export) walks the same atomics with relaxed loads;
// a snapshot is a monotone, possibly slightly-torn view — fine for
// monitoring, never used for safety decisions.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace gdur::obs {

/// The counter catalog. Fixed at compile time: adding a counter is a code
/// change, which keeps slots POD-sized and the record path index-only.
enum class Counter : std::uint8_t {
  kTxnSubmitted = 0,   // termination protocol entered (coordinator)
  kTxnCommitted,       // decide(commit) at a replica
  kTxnAborted,         // decide(abort) at a replica
  kTermDelivered,      // xdeliver(T): termination message queued
  kCertified,          // certification verdicts computed (cast_vote)
  kVotesSent,          // vote messages leaving a replica (retries included)
  kVotesRecv,          // vote messages accepted by on_vote
  kDecisions,          // decision records reached (decide() calls)
  kApplies,            // committed write-sets installed into the store
  kWalAppends,         // write-ahead-log records appended
  kEpochActivations,   // membership epochs activated
  kMsgsSent,           // transport-level messages (sim or live frames)
  kBytesSent,          // transport-level payload bytes
  kMsgsDropped,        // delivery attempts lost to faults
  kRetransmits,        // extra delivery attempts sent
  kMsgsExpired,        // messages abandoned after give_up
  kOrderingMsgs,       // ordering-layer (Skeen) steps: proposals + finals
  kMailboxTasks,       // tasks executed by live mailbox threads
  kTimerFires,         // live mailbox timers that fell due
  kLoopWakeups,        // live reactor wakeups (epoll/poll returns)
  kFlightDumps,        // flight-recorder dumps emitted
  kInvariantViolations,// online invariant monitor trips
  kWatchdogTrips,      // stall watchdog trips
  kClientSessions,     // front-door client sessions accepted
  kClientOps,          // front-door client requests admitted
  kClientPushbacks,    // front-door admission pushback engagements
  kCount
};
[[nodiscard]] const char* counter_name(Counter c);

/// Histogram catalog. All histograms share one shape: kHistBuckets log2
/// buckets, bucket i counting values v with floor(log2(v)) == i (v == 0
/// lands in bucket 0), the last bucket absorbing overflow.
enum class Hist : std::uint8_t {
  kCertifyUs = 0,    // certification service time (sim: analytic charge)
  kQueueDepth,       // termination-queue length sampled at delivery
  kMsgBytes,         // per-message payload size
  kCount
};
[[nodiscard]] const char* hist_name(Hist h);

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(Hist::kCount);
inline constexpr std::size_t kHistBuckets = 32;

/// One recording slot — one per site (plus a few for shared subsystems).
/// All mutation goes through the two record methods; they are safe to call
/// from any thread concurrently.
class StatsSlot {
 public:
  StatsSlot() = default;
  StatsSlot(const StatsSlot&) = delete;
  StatsSlot& operator=(const StatsSlot&) = delete;

  /// Hot path: one relaxed fetch_add — or, in single-writer mode, a plain
  /// relaxed load+store pair (no lock-prefixed RMW). No allocation, no
  /// lock, no clock. Proven interprocedurally by gdur-hotpath-reachability.
  GDUR_HOT_PATH("noalloc,nolock,noclock,noblock")
  void record(Counter c, std::uint64_t n = 1) {
    auto& cell = counters_[static_cast<std::size_t>(c)];
    if (single_writer_) {
      assert_single_writer();
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      cell.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Hot path: log2-bucket a value. No allocation, no lock, no clock.
  GDUR_HOT_PATH("noalloc,nolock,noclock,noblock")
  void record_value(Hist h, std::uint64_t v) {
    std::size_t b = 0;
    if (v != 0) {
      b = static_cast<std::size_t>(63 - __builtin_clzll(v));
      if (b >= kHistBuckets) b = kHistBuckets - 1;
    }
    auto& cell = hist_[static_cast<std::size_t>(h) * kHistBuckets + b];
    if (single_writer_) {
      assert_single_writer();
      cell.store(cell.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    } else {
      cell.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Single-writer mode: every record call comes from ONE thread (the
  /// discrete-event simulator), so counters bump with plain relaxed
  /// load/store instead of atomic RMW — roughly 3x cheaper per record.
  /// Aggregation-side reads stay safe (whole-word relaxed loads); NEVER
  /// enable this when site threads record concurrently (live mode, or a
  /// sharded sim backend with lane threads). ObsPlane force-disables it
  /// when it is attached to a cluster with shards_per_site > 1.
  void set_single_writer(bool on) {
    single_writer_ = on;
    writer_.store(0, std::memory_order_relaxed);  // re-arm identity check
  }

  [[nodiscard]] bool single_writer() const { return single_writer_; }

  [[nodiscard]] std::uint64_t value(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(Hist h, std::size_t b) const {
    return hist_[static_cast<std::size_t>(h) * kHistBuckets + b].load(
        std::memory_order_relaxed);
  }

 private:
  /// Debug-build teeth for the single-writer contract: the first record call
  /// claims the slot for its thread (one CAS), every later call verifies the
  /// claim with a relaxed load. A second writer would previously just corrupt
  /// counts silently (the load+store bump loses increments); now it aborts in
  /// debug builds. No allocation, no lock, no clock — the release-build hot
  /// path is unchanged (the whole check compiles away under NDEBUG).
  void assert_single_writer() {
#ifndef NDEBUG
    const auto h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::size_t me = h == 0 ? 1 : h;
    std::size_t seen = writer_.load(std::memory_order_relaxed);
    if (seen == 0) {
      if (writer_.compare_exchange_strong(seen, me,
                                          std::memory_order_relaxed))
        return;  // claimed by this thread
    }
    assert(seen == me &&
           "StatsSlot single-writer mode violated: second thread recording");
#endif
  }

  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::atomic<std::uint64_t>, kHistCount * kHistBuckets> hist_{};
  std::atomic<std::size_t> writer_{0};  // debug: claimed writer identity
  bool single_writer_ = false;  // set once at attach time, before recording
};

/// The registry: a fixed set of slots allocated once at construction.
/// slot(i) never invalidates — subsystems cache the pointer and record
/// through it for the lifetime of the run.
class StatsRegistry {
 public:
  /// `slots` recording slots (typically sites + a few shared ones).
  explicit StatsRegistry(int slots);

  [[nodiscard]] StatsSlot& slot(std::size_t i) { return slots_[i]; }
  [[nodiscard]] const StatsSlot& slot(std::size_t i) const {
    return slots_[i];
  }
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  struct Snapshot {
    SimTime at = 0;
    std::array<std::uint64_t, kCounterCount> total{};
    std::vector<std::array<std::uint64_t, kCounterCount>> per_slot;
    std::array<std::array<std::uint64_t, kHistBuckets>, kHistCount> hist{};
  };
  [[nodiscard]] Snapshot snapshot(SimTime at) const;

  /// Snapshot serialized as JSON (stable key order — diffable).
  [[nodiscard]] static std::string to_json(const Snapshot& s);
  /// Snapshot in Prometheus text exposition format (`gdur_` prefix,
  /// per-slot series labeled {slot="N"}).
  [[nodiscard]] static std::string to_prometheus(const Snapshot& s);

 private:
  // deque: StatsSlot holds atomics (immovable); deque grows without moving.
  std::deque<StatsSlot> slots_;
};

}  // namespace gdur::obs

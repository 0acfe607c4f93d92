// ObsPlane — the production observability plane, assembled.
//
// One object bundles the four always-on facilities (DESIGN.md §13):
//   stats       lock-free counters + histograms (obs/stats.h)
//   flight      per-site ring-buffer flight recorder (obs/flight_recorder.h)
//   watchdog    stall detection over registered progress probes
//   invariants  online safety-invariant monitor
//
// and wires their cross-talk: an invariant violation or a watchdog trip
// bumps the corresponding counter, leaves a flight-recorder event, and
// triggers an automatic flight dump through the configured sink (a file
// writer in live mode, a capture buffer in tests). Every core::Cluster
// records into one: the plane passed as ClusterConfig::plane, or else one
// the cluster builds and owns. Hooks only read simulator state, so an
// observed sim run is byte-identical to the same run recorded before the
// plane existed (the determinism and timeline goldens pin this).
//
// Slot layout: slot s < sites is site s; slot sites+0 is the shared live
// runtime (the reactor thread's wakeups, every mailbox's timer fires); ring
// r < sites is site r's flight recorder ring.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/stats.h"
#include "obs/watchdog.h"

namespace gdur::obs {

struct ObsPlaneConfig {
  int sites = 4;
  std::size_t flight_capacity = 256;     // events retained per site ring
  SimDuration stall_after = seconds(2);  // watchdog threshold
  /// All record calls come from one thread (a pure-sim run): counters use
  /// plain relaxed load/store instead of atomic RMW. Must stay false
  /// whenever live site threads record (see StatsSlot::set_single_writer).
  bool single_writer = false;
};

class ObsPlane {
 public:
  explicit ObsPlane(ObsPlaneConfig cfg = {});

  [[nodiscard]] const ObsPlaneConfig& config() const { return cfg_; }
  [[nodiscard]] StatsRegistry& stats() { return stats_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }
  [[nodiscard]] StallWatchdog& watchdog() { return watchdog_; }
  [[nodiscard]] const StallWatchdog& watchdog() const { return watchdog_; }
  [[nodiscard]] InvariantMonitor& invariants() { return invariants_; }
  [[nodiscard]] const InvariantMonitor& invariants() const {
    return invariants_;
  }

  /// Site s's recording slot / flight ring (cached by subsystems).
  [[nodiscard]] StatsSlot& slot(SiteId s) {
    return stats_.slot(s < static_cast<SiteId>(cfg_.sites) ? s : 0);
  }
  /// The extra slot shared by the live runtime's own threads.
  [[nodiscard]] StatsSlot& runtime_slot() {
    return stats_.slot(static_cast<std::size_t>(cfg_.sites));
  }
  [[nodiscard]] FlightRing& ring(SiteId s) {
    return flight_.ring(s < static_cast<SiteId>(cfg_.sites) ? s : 0);
  }

  /// Counter `c` summed over every slot. Nothing resets the plane, so a
  /// window is the difference of two totals.
  [[nodiscard]] std::uint64_t total(Counter c) const;

  /// Where automatic flight dumps go. Default: retained in last_dump().
  using DumpSink = std::function<void(const char* reason,
                                      const std::string& text,
                                      const std::string& chrome_json)>;
  void set_dump_sink(DumpSink sink) {
    MutexLock lock(&mu_);
    sink_ = std::move(sink);
  }

  /// Dumps the flight recorder now (also called automatically on watchdog
  /// trips and invariant violations). Thread-safe; rate-unlimited — the
  /// caller decides when a dump is warranted.
  void dump_flight(const char* reason);

  [[nodiscard]] std::uint64_t dumps() const {
    MutexLock lock(&mu_);
    return dumps_;
  }
  [[nodiscard]] std::string last_dump() const {
    MutexLock lock(&mu_);
    return last_dump_;
  }
  [[nodiscard]] std::string last_dump_reason() const {
    MutexLock lock(&mu_);
    return last_reason_;
  }

  /// Full plane snapshot: stats + watchdog/invariant/dump state, as JSON
  /// (schema: tools/obs/snapshot_schema.json) and Prometheus text.
  [[nodiscard]] std::string snapshot_json(SimTime now) const;
  [[nodiscard]] std::string snapshot_prometheus(SimTime now) const;

 private:
  ObsPlaneConfig cfg_;
  StatsRegistry stats_;
  FlightRecorder flight_;
  StallWatchdog watchdog_;
  InvariantMonitor invariants_;

  mutable Mutex mu_;
  DumpSink sink_ GUARDED_BY(mu_);
  std::uint64_t dumps_ GUARDED_BY(mu_) = 0;
  std::string last_dump_ GUARDED_BY(mu_);
  std::string last_reason_ GUARDED_BY(mu_);
};

}  // namespace gdur::obs

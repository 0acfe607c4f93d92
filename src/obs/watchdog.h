// Stall watchdog — flags wedged progress before the run times out.
//
// The class of bug PR 6's lost-Skeen-proposal fix belonged to — a queue
// whose head can never finalize — is silent: throughput goes to zero and
// nothing reports why until the harness gives up minutes later. The
// watchdog makes that loud. Every work queue in the system (live mailbox,
// with the timers that have fallen due; the reactor; replica certification
// queue) registers a *probe*: two cheap thread-safe reads, a monotone
// progress counter and a pending-work gauge. A periodic scan then applies
// one rule:
//
//   pending > 0  AND  progress unchanged for >= stall_after  =>  trip
//
// A trip fires once per stall episode (re-arming when progress resumes),
// bumps Counter::kWatchdogTrips and triggers a flight-recorder dump via
// the plane's on_trip hook.
//
// The scan itself is NOT a hot path — it runs every 25 ms on the
// live::PlaneAttendant thread (run_live, gdur_site) or from a test harness
// (sim) — so it takes a mutex. Probes must only read lock-free state
// (atomics), because they are invoked from the scanning thread while site
// threads run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace gdur::obs {

class StallWatchdog {
 public:
  /// Reads must be thread-safe and non-blocking (relaxed atomics).
  using GaugeFn = std::function<std::uint64_t()>;

  struct StallEvent {
    std::string probe;  // "mailbox", "cert_queue", "event_loop", ...
    SiteId site = kNoSite;
    SimTime at = 0;          // scan instant that tripped
    SimTime stuck_since = 0; // first scan that saw this stall
    std::uint64_t pending = 0;
  };

  explicit StallWatchdog(SimDuration stall_after = seconds(2))
      : stall_after_(stall_after) {}

  /// Registers a probe. The functions are retained for the watchdog's
  /// lifetime; call clear_probes() before tearing down what they read.
  void add_probe(std::string name, SiteId site, GaugeFn progress,
                 GaugeFn pending);
  void clear_probes();

  /// Invoked (outside the watchdog mutex) on every fresh trip.
  void set_on_trip(std::function<void(const StallEvent&)> cb) {
    MutexLock lock(&mu_);
    on_trip_ = std::move(cb);
  }

  /// One scan pass at time `now`; returns the number of fresh trips.
  int scan(SimTime now);

  [[nodiscard]] std::uint64_t trips() const {
    MutexLock lock(&mu_);
    return trips_;
  }
  [[nodiscard]] std::vector<StallEvent> events() const {
    MutexLock lock(&mu_);
    return events_;
  }

 private:
  struct Cell {
    std::string name;
    SiteId site;
    GaugeFn progress;
    GaugeFn pending;
    std::uint64_t last = 0;       // progress at the previous scan
    SimTime stuck_since = 0;      // first scan with pending>0 and no progress
    bool stalled = false;         // inside a candidate stall window
    bool tripped = false;         // already reported this episode
    bool seen = false;            // last is valid
  };

  mutable Mutex mu_;
  const SimDuration stall_after_;
  std::vector<Cell> cells_ GUARDED_BY(mu_);
  std::uint64_t trips_ GUARDED_BY(mu_) = 0;
  std::vector<StallEvent> events_ GUARDED_BY(mu_);
  std::function<void(const StallEvent&)> on_trip_ GUARDED_BY(mu_);
};

}  // namespace gdur::obs

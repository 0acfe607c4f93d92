// The benchmark's open-loop load generator.
//
// Poisson arrivals on an absolute-deadline schedule: arrival k is due at
// t0 + Σ gaps, and every overdue arrival is released at once — never
// skipped, never re-based on the actual send time — so a late generator
// shows up as lag (and as latency, which callers time from the intended
// send time), not as a silently lower rate. Arrivals still unsent when the
// window closes count as not offered, so `offered_ratio` exposes a
// generator that cannot keep up.
#pragma once

#include <sys/prctl.h>

#include <cmath>
#include <cstdint>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

struct OpenLoopStats {
  std::uint64_t scheduled = 0;  // arrivals due before the window closed
  std::uint64_t issued = 0;     // arrivals handed to submit() in the window
  std::uint64_t shed = 0;       // issued but refused by submit()
  gdur::harness::LatencyStat lag;  // actual − intended send time

  [[nodiscard]] double offered_ratio() const {
    return scheduled == 0 ? 1.0
                          : static_cast<double>(issued) /
                                static_cast<double>(scheduled);
  }
};

/// Runs the schedule for `secs` on the calling thread. `submit(intended_ns,
/// k)` gets the arrival's due time in ns since `epoch` and returns false
/// when the arrival is refused (shed: counted, never queued or retried).
template <class Submit>
OpenLoopStats run_open_loop(double rate_tps, std::uint64_t seed, double secs,
                            Clock::time_point epoch, Submit&& submit) {
  // Default timer slack (50 us) would make every sleep_until wake late by
  // a sizeable fraction of a 125 us mean gap; 1 us keeps the lag honest
  // without spinning a core.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  gdur::Rng rng(gdur::mix64(seed ^ 0x6f70656e6c6f6f70ULL));
  auto gap_ns = [&] {
    return -std::log(1.0 - rng.next_double()) / rate_tps * 1e9;
  };
  OpenLoopStats st;
  const auto end_ns = ns_since(epoch) + static_cast<std::int64_t>(secs * 1e9);
  double due = static_cast<double>(ns_since(epoch)) + gap_ns();
  std::uint64_t k = 0;
  while (due < static_cast<double>(end_ns)) {
    std::int64_t now = ns_since(epoch);
    if (now >= end_ns) break;  // behind at the close: the rest is unoffered
    const auto due_ns = static_cast<std::int64_t>(due);
    if (now < due_ns) {
      std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(due_ns));
      now = ns_since(epoch);
    }
    st.lag.add(now - due_ns);
    ++st.issued;
    ++st.scheduled;
    if (!submit(due_ns, k++)) ++st.shed;
    due += gap_ns();
  }
  // Count what was due but never sent (only nonzero when behind).
  for (; due < static_cast<double>(end_ns); due += gap_ns()) ++st.scheduled;
  return st;
}

}  // namespace perfbench

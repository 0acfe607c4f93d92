// The wall-clock driver of a workload::ArrivalSchedule, shared by run_live
// and gdur_loadgen. Every overdue arrival is released at once, so a late
// pacer shows up as lag (and as latency, timed from the due time), never as
// a lower rate; arrivals unissued when the window closes count as scheduled
// but not offered.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "harness/metrics.h"
#include "workload/workload.h"

namespace gdur::live {

struct PaceStats {
  std::uint64_t scheduled = 0;  // arrivals due before the window closed
  std::uint64_t issued = 0;     // arrivals handed to submit() in time
  std::uint64_t shed = 0;       // issued but refused by submit()
  harness::LatencyStat lag;     // actual − intended issue time
};

/// Runs `schedule` on the calling thread, whose due times are nanoseconds
/// since `epoch`, until the window closes at `end` (same clock) or
/// `stopped()` turns true. `submit(due)` takes each arrival and returns
/// false when it refuses it (shed: counted, never queued or retried).
/// Returns no earlier than `end` unless stopped.
PaceStats pace(workload::ArrivalSchedule& schedule,
               std::chrono::steady_clock::time_point epoch, SimTime end,
               bool (*stopped)(),
               const std::function<bool(SimTime due)>& submit);

}  // namespace gdur::live

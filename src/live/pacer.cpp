#include "live/pacer.h"

#include <sys/prctl.h>

#include <algorithm>
#include <thread>

namespace gdur::live {

PaceStats pace(workload::ArrivalSchedule& schedule,
               std::chrono::steady_clock::time_point epoch, SimTime end,
               bool (*stopped)(),
               const std::function<bool(SimTime due)>& submit) {
  using std::chrono::steady_clock;
  // Default timer slack (50 us) would make every wake-up late by a sizeable
  // fraction of the mean gap at tens of thousands of arrivals per second;
  // 1 us keeps the lag honest without spinning a core.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto since_epoch = [epoch] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               steady_clock::now() - epoch)
        .count();
  };
  PaceStats st;
  for (;;) {
    SimTime now = since_epoch();
    if (stopped()) {
      end = std::min(end, now);
      break;
    }
    const SimTime due = schedule.due();
    const SimTime wake = std::min(due, end);
    if (now < wake) {
      // gdur-lint: allow(live/blocking-call) the pacer's clock, on a load-generator thread, never a site or event-loop thread
      std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(wake));
      now = since_epoch();
    }
    // Window closed; when the pacer is behind, the rest stays unoffered.
    if (due >= end || now >= end) break;
    st.lag.add(now - due);
    ++st.issued;
    if (!submit(due)) ++st.shed;
    schedule.advance();
  }
  st.scheduled = st.issued;
  for (; schedule.due() < end; schedule.advance()) ++st.scheduled;
  return st;
}

}  // namespace gdur::live

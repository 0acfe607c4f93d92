// Single-consumer mailbox — the one event queue of a live site.
//
// Each site's core::Replica is pinned to one worker thread that drains this
// mailbox; every protocol handler, client-flow continuation, timer and
// delayed frame for the site runs as a task on that thread. Replica code
// therefore stays single-threaded internally, exactly as it is under the
// discrete-event simulator — the mailbox is the live analogue of the sim's
// per-site event queue. Posted tasks run in FIFO order; timers wait in a
// deadline-ordered heap and join the FIFO when they fall due, so the
// consumer sleeps on one condition variable until the next post or the
// next deadline, whichever comes first.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/task.h"
#include "common/thread_annotations.h"

namespace gdur::obs {
class StatsSlot;
}

namespace gdur::live {

class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Enqueues `fn` (any thread). Tasks posted after stop() are dropped.
  void post(Task fn);

  /// Arms `fn` to join the queue once `at` has passed (any thread): never
  /// earlier, and timers with equal deadlines in the order they were armed
  /// (what keeps a delayed link FIFO). An armed timer is not work yet — it
  /// enters posted() only when it falls due. Timers armed after stop() are
  /// dropped; stop() discards the armed ones without waiting for them.
  void post_at(Clock::time_point at, Task fn);

  /// Consumer loop: runs tasks in FIFO order until stop(). Call from
  /// exactly one thread. Blocks on the queue condvar until a post or the
  /// earliest deadline (that is its job) but must never sleep for a fixed
  /// duration — latency under load comes from the tasks, not the loop.
  GDUR_HOT_PATH("nosleep") void run();

  /// Wakes the consumer and ends run(). Queued tasks and armed timers are
  /// discarded (teardown semantics: in-flight work past the quiesce grace
  /// period is abandoned, never half-run on a foreign thread).
  void stop();

  /// Tasks posted plus timers that fell due.
  [[nodiscard]] std::uint64_t posted() const {
    return posted_.load(std::memory_order_relaxed);
  }
  /// Tasks the consumer has fully run. With posted(), this is the
  /// watchdog's progress/pending pair: pending = posted() - executed(), so
  /// an idle site holding only future timers reads zero pending. Both are
  /// lock-free reads, safe from the watchdog's scanning thread.
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Optional stats slots: the consumer records Counter::kMailboxTasks in
  /// `tasks` for every task it runs, and Counter::kTimerFires in `timers`
  /// for every timer that falls due. Set before run() spins up; not owned.
  void set_stats(obs::StatsSlot* tasks, obs::StatsSlot* timers = nullptr) {
    stats_ = tasks;
    timer_stats_ = timers;
  }

  /// Optional idle hook, run on the consumer thread whenever no task is
  /// runnable — after the last queued task, before blocking (armed timers
  /// that are not yet due do not count) — and once more at stop(). This is
  /// the flush point for per-destination message coalescing (live vote/ack
  /// batching): batches fill while the site is busy and drain the instant
  /// it has nothing left to do, so batching never delays a message the
  /// protocol is waiting on. Set before run(); must not post back into
  /// this mailbox from the final (post-stop) invocation.
  void set_idle(Task fn) { idle_ = std::move(fn); }

 private:
  struct Timer {
    Clock::time_point at;
    std::uint64_t seq;  // arming order: equal deadlines fall due FIFO
    Task fn;
  };
  /// Heap order: true when `a` falls due after `b` (a min-heap on
  /// (at, seq) under std::push_heap / std::pop_heap).
  static bool later(const Timer& a, const Timer& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
  /// Moves every timer due at `now` to the back of the queue, in
  /// (deadline, arming) order.
  void take_due(Clock::time_point now) REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Task> q_ GUARDED_BY(mu_);
  std::vector<Timer> timers_ GUARDED_BY(mu_);  // heap ordered by later()
  std::uint64_t armed_ GUARDED_BY(mu_) = 0;    // timers ever armed
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> executed_{0};
  obs::StatsSlot* stats_ = nullptr;        // set before run(), read by consumer
  obs::StatsSlot* timer_stats_ = nullptr;  // likewise
  Task idle_;                              // set before run(), run by consumer
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace gdur::live

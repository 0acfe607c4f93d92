// Real-clock timer wheel for the live runtime.
//
// A dedicated thread advances a hashed wheel of 1 ms slots and fires due
// callbacks in deadline order (FIFO within a slot — timers scheduled in
// order for the same deadline fire in that order, which is what preserves
// per-link FIFO when LiveTransport emulates constant link delays). The
// thread sleeps indefinitely when the wheel is empty.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace gdur::obs {
class StatsSlot;
}

namespace gdur::live {

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  TimerWheel() = default;
  ~TimerWheel() { stop(); }

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  void start();
  /// Idempotent. Pending timers are discarded; the tick thread is joined.
  void stop();

  /// Fires `fn` on the wheel thread once `delay` has elapsed (rounded up to
  /// the next 1 ms tick). Thread-safe. Callbacks must be cheap — they are
  /// expected to post real work to a site mailbox.
  void schedule_after(std::chrono::nanoseconds delay, std::function<void()> fn);

  [[nodiscard]] std::uint64_t scheduled() const;

  /// Lock-free gauges for the stall watchdog. A healthy wheel with armed
  /// timers advances ticks() every 1 ms slot boundary, so the probe pair is
  /// (progress = ticks, pending = armed): a wedged wheel thread freezes the
  /// tick counter while timers stay armed.
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_n_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fired() const {
    return fired_n_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t armed() const {
    return armed_n_.load(std::memory_order_relaxed);
  }

  /// Optional stats slot: the wheel thread records Counter::kTimerFires per
  /// fired callback. Set before start(); not owned.
  void set_stats(obs::StatsSlot* s) { stats_ = s; }

 private:
  struct Entry {
    std::uint64_t tick;  // absolute tick at which to fire
    std::function<void()> fn;
  };

  static constexpr std::size_t kSlots = 4096;
  static constexpr auto kTick = std::chrono::milliseconds(1);

  void loop() EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t tick_of(Clock::time_point tp) const
      REQUIRES(mu_);
  /// Whole ticks elapsed at `tp` (tick_of rounds up, this floors).
  [[nodiscard]] std::uint64_t elapsed_ticks(Clock::time_point tp) const
      REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::vector<Entry>> slots_ GUARDED_BY(mu_){kSlots};
  std::size_t armed_ GUARDED_BY(mu_) = 0;       // entries currently armed
  std::uint64_t scheduled_ GUARDED_BY(mu_) = 0; // lifetime count
  std::uint64_t cur_tick_ GUARDED_BY(mu_) = 0;  // next tick to process
  Clock::time_point t0_ GUARDED_BY(mu_);
  bool running_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Lock-free mirrors of the guarded state above, for watchdog probes.
  std::atomic<std::uint64_t> ticks_n_{0};
  std::atomic<std::uint64_t> fired_n_{0};
  std::atomic<std::uint64_t> armed_n_{0};
  obs::StatsSlot* stats_ = nullptr;  // set before start(), read by the thread
  std::thread thread_;
};

}  // namespace gdur::live

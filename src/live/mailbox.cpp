#include "live/mailbox.h"

#include <algorithm>
#include <utility>

#include "obs/stats.h"

namespace gdur::live {

void Mailbox::post(Task fn) {
  {
    MutexLock lock(&mu_);
    if (stopped_) return;
    q_.push_back(std::move(fn));
    posted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void Mailbox::post_at(Clock::time_point at, Task fn) {
  bool earliest = false;
  {
    MutexLock lock(&mu_);
    if (stopped_) return;
    timers_.push_back(Timer{at, armed_++, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), later);
    // Only a new earliest deadline changes what a waiting consumer waits
    // for; any other timer falls due after the one it already waits on.
    earliest = timers_.front().seq == armed_ - 1;
  }
  if (earliest) cv_.notify_one();
}

void Mailbox::take_due(Clock::time_point now) {
  while (!timers_.empty() && timers_.front().at <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), later);
    q_.push_back(std::move(timers_.back().fn));
    timers_.pop_back();
    posted_.fetch_add(1, std::memory_order_relaxed);
    if (timer_stats_ != nullptr)
      timer_stats_->record(obs::Counter::kTimerFires);
  }
}

void Mailbox::run() {
  // Tracks whether the idle hook already ran for the current dry spell, so
  // an empty queue flushes exactly once and then blocks.
  bool idle_ran = false;
  for (;;) {
    Task task;
    bool idle = false;  // nothing runnable: flush, then come back to wait
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (stopped_) break;
        if (!timers_.empty()) take_due(Clock::now());
        if (!q_.empty() || (idle_ && !idle_ran)) break;
        // Spurious and early wake-ups just go round again. The deadline is
        // copied: the heap may grow (post_at) or be discarded (stop())
        // while the wait has the lock released.
        if (timers_.empty()) {
          cv_.wait(lock);
        } else {
          const Clock::time_point due = timers_.front().at;
          cv_.wait_until(lock, due);
        }
      }
      if (stopped_) break;
      idle = q_.empty();
      if (!idle) {
        task = std::move(q_.front());
        q_.pop_front();
      }
    }
    if (idle) {
      idle_();
      idle_ran = true;
      continue;
    }
    idle_ran = false;
    task();
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (stats_ != nullptr) stats_->record(obs::Counter::kMailboxTasks);
  }
  // Teardown flush: anything still coalesced goes out (best-effort; the
  // transport may already be quiescing).
  if (idle_) idle_();
}

void Mailbox::stop() {
  std::deque<Task> queued;
  std::vector<Timer> armed;
  {
    MutexLock lock(&mu_);
    stopped_ = true;
    // Discarded tasks count as executed so posted() - executed() (the
    // watchdog's pending gauge) returns to zero at teardown; armed timers
    // never entered posted().
    executed_.fetch_add(q_.size(), std::memory_order_relaxed);
    queued.swap(q_);
    armed.swap(timers_);
  }
  cv_.notify_all();
  // The discarded closures are destroyed here, outside the lock.
}

}  // namespace gdur::live

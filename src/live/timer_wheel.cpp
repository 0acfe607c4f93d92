#include "live/timer_wheel.h"

#include <algorithm>

#include "obs/stats.h"

namespace gdur::live {

void TimerWheel::start() {
  MutexLock lock(&mu_);
  if (running_) return;
  t0_ = Clock::now();
  cur_tick_ = 0;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { loop(); });
}

void TimerWheel::stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  MutexLock lock(&mu_);
  running_ = false;
  for (auto& slot : slots_) slot.clear();
  armed_ = 0;
  armed_n_.store(0, std::memory_order_relaxed);
}

std::uint64_t TimerWheel::tick_of(Clock::time_point tp) const {
  const auto since = tp - t0_;
  if (since.count() <= 0) return 0;
  // Round up: a timer never fires early.
  return static_cast<std::uint64_t>((since + kTick - Clock::duration(1)) / kTick);
}

std::uint64_t TimerWheel::elapsed_ticks(Clock::time_point tp) const {
  const auto since = tp - t0_;
  return since.count() <= 0 ? 0 : static_cast<std::uint64_t>(since / kTick);
}

void TimerWheel::schedule_after(std::chrono::nanoseconds delay,
                                std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    if (!running_ || stopping_) return;
    const auto now = Clock::now();
    // An idle wheel's cursor stopped where it ran dry: bring it to the
    // present here, before arming, so it can never jump past the slot this
    // timer lands in (the wheel thread wakes later than now).
    if (armed_ == 0) cur_tick_ = std::max(cur_tick_, elapsed_ticks(now));
    const std::uint64_t tick = std::max(tick_of(now + delay), cur_tick_);
    slots_[tick % kSlots].push_back(Entry{tick, std::move(fn)});
    ++armed_;
    ++scheduled_;
    armed_n_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void TimerWheel::loop() {
  MutexLock lock(&mu_);
  while (!stopping_) {
    if (armed_ == 0) {
      cv_.wait(lock, [this]() REQUIRES(mu_) { return stopping_ || armed_ > 0; });
      if (stopping_) return;
      continue;
    }
    // Tick T's entries are due once its boundary t0_ + T*kTick has PASSED,
    // so the gate must floor (tick_of rounds up and would admit the slot
    // up to a full tick early).
    if (cur_tick_ > elapsed_ticks(Clock::now())) {
      cv_.wait_until(lock, t0_ + cur_tick_ * kTick,
                     [this]() REQUIRES(mu_) { return stopping_; });
      if (stopping_) return;
      continue;
    }
    // Process the current tick's slot: fire due entries in insertion order,
    // keep entries hashed here for a later wheel revolution.
    auto& slot = slots_[cur_tick_ % kSlots];
    std::vector<std::function<void()>> due;
    std::size_t kept = 0;
    for (auto& e : slot) {
      if (e.tick <= cur_tick_) {
        due.push_back(std::move(e.fn));
      } else {
        slot[kept++] = std::move(e);
      }
    }
    slot.resize(kept);
    armed_ -= due.size();
    ++cur_tick_;
    ticks_n_.fetch_add(1, std::memory_order_relaxed);
    armed_n_.fetch_sub(due.size(), std::memory_order_relaxed);
    if (!due.empty()) {
      lock.unlock();
      for (auto& fn : due) fn();
      fired_n_.fetch_add(due.size(), std::memory_order_relaxed);
      if (stats_ != nullptr)
        stats_->record(obs::Counter::kTimerFires, due.size());
      lock.lock();
    }
  }
}

std::uint64_t TimerWheel::scheduled() const {
  MutexLock lock(&mu_);
  return scheduled_;
}

}  // namespace gdur::live

#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace gdur::sim {

Simulator::Handle Simulator::park(Task&& t) {
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (slots_ > kSlotMask)
      throw std::length_error("Simulator: more than 2^24 live tasks");
    slot = slots_++;
    if ((slot >> kChunkBits) == chunks_.size())
      chunks_.push_back(std::make_unique<Task[]>(std::size_t{1} << kChunkBits));
  }
  task(slot) = std::move(t);
  return Handle{slot};
}

void Simulator::at(SimTime t, Handle h) {
  assert(t >= now_ && "cannot schedule in the past");
  assert(task(static_cast<std::uint32_t>(h)) && "handle is not parked");
  if (next_seq_ > kMaxSeq)
    throw std::length_error("Simulator: event sequence number overflow");
  push(Key{t, next_seq_++ << kSlotBits | static_cast<std::uint32_t>(h)});
}

void Simulator::run_parked(Handle h) {
  const auto slot = static_cast<std::uint32_t>(h);
  Task& t = task(slot);  // chunks never move: safe while `t` schedules more
  t();
  t = Task();
  free_.push_back(slot);
}

void Simulator::drop(Handle h) {
  const auto slot = static_cast<std::uint32_t>(h);
  task(slot) = Task();
  free_.push_back(slot);
}

void Simulator::push(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

Simulator::Key Simulator::pop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {
      // Smallest of four children without data-dependent branches.
      const Key* c = &heap_[first];
      const std::size_t a = static_cast<std::size_t>(c[1] < c[0]);
      const std::size_t b = 2 + static_cast<std::size_t>(c[3] < c[2]);
      best += c[b] < c[a] ? b : a;
    } else {
      for (std::size_t c = first + 1; c < n; ++c)
        if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void Simulator::fire(Key k) {
  now_ = k.t;
  ++processed_;
  run_parked(Handle{static_cast<std::uint32_t>(k.seq_slot & kSlotMask)});
}

void Simulator::run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) fire(pop());
}

bool Simulator::run_until(SimTime t) {
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && heap_.front().t <= t) fire(pop());
  if (!stopped_ && now_ < t) now_ = t;
  return !stopped_;
}

}  // namespace gdur::sim

// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's Grid'5000 testbed: replicas
// and clients are actors whose handlers run as events on a single virtual
// clock. Ties are broken by insertion order, so a run is a pure function of
// its inputs — every experiment in bench/ is exactly reproducible.
//
// Events live in a slab of Tasks (stable addresses, recycled through a free
// list) and are ordered by a 4-ary min-heap of 16-byte keys
// {t, seq << 24 | slot}: the heap never moves a closure. A hop that must
// run a closure later without wrapping it in another (a CPU job behind its
// crash-epoch guard, a message behind its receive charge) parks it and
// carries the 4-byte Handle instead.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/task.h"

namespace gdur::sim {

class Simulator {
 public:
  using Event = Task;
  /// A task parked in the slab (park()). It runs once — scheduled by at(),
  /// or immediately by run_parked() — or is destroyed unrun by drop();
  /// exactly one of the three must happen to every handle.
  enum class Handle : std::uint32_t {};

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `event` at absolute time `t` (>= now()).
  void at(SimTime t, Task event) { at(t, park(std::move(event))); }
  /// Schedules the parked task `h` at absolute time `t` (>= now()).
  void at(SimTime t, Handle h);

  /// Schedules `event` `delay` from now.
  void after(SimDuration delay, Task event) {
    at(now_ + delay, park(std::move(event)));
  }
  void after(SimDuration delay, Handle h) { at(now_ + delay, h); }

  /// Stores `task` without scheduling it. Parking takes no sequence number,
  /// so the order of events is fixed by the at() calls alone. (An rvalue
  /// reference: the closure moves once, straight into the slab.)
  [[nodiscard]] Handle park(Task&& task);
  /// Runs the parked task `h` now, inside the current event, and frees it.
  void run_parked(Handle h);
  /// Destroys the parked task `h` without running it.
  void drop(Handle h);

  /// Runs events until the queue drains or stop() is called.
  void run();

  /// Runs events with timestamp <= `t`; afterwards now() == t unless the run
  /// was stopped early. Returns false if stop() ended the run.
  bool run_until(SimTime t);

  /// Stops the current run() / run_until() after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Events scheduled and not yet run (parked tasks not counted).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kSlotBits)) - 1;
  static constexpr int kChunkBits = 10;  // 1024 tasks (72 KiB) per chunk

  /// Heap key: time, then the FIFO sequence number (unique, so the slot
  /// bits below it never decide an order).
  struct Key {
    SimTime t;
    std::uint64_t seq_slot;
    bool operator<(const Key& o) const {
      // Bitwise, not short-circuit: no data-dependent branch in the sifts.
      const int earlier = t < o.t;
      const int tied = t == o.t;
      const int first = seq_slot < o.seq_slot;
      return (earlier | (tied & first)) != 0;
    }
  };

  Task& task(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & ((1u << kChunkBits) - 1)];
  }
  void push(Key k);
  Key pop();
  void fire(Key k);

  std::vector<Key> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<std::unique_ptr<Task[]>> chunks_;
  std::vector<std::uint32_t> free_;  // recycled slots, most recent last
  std::uint32_t slots_ = 0;          // slots ever handed out
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace gdur::sim

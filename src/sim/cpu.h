// Multi-core CPU model.
//
// Each site owns one CpuResource with k identical cores (the paper's
// machines have 4). Protocol work — handling a message, running a
// certification test, applying after-values, marshaling metadata — is
// submitted as a job with a service time; jobs queue FIFO when all cores are
// busy. Queueing at saturated sites is what bends the throughput/latency
// curves of Figures 3-6 upward, exactly as on the real testbed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/task.h"
#include "sim/simulator.h"

namespace gdur::sim {

class CpuResource {
 public:
  CpuResource(Simulator& simulator, int cores)
      : sim_(simulator), core_free_(static_cast<std::size_t>(cores), 0) {}

  /// Runs `done` after `service` time on the first core to free up.
  void submit(SimDuration service, Task done) {
    submit(service, sim_.park(std::move(done)));
  }
  /// Same, for a task already parked in the simulator: a job lost to a
  /// crash is dropped, never run.
  void submit(SimDuration service, Simulator::Handle done);

  /// Charges `service` time on the first core to free up without scheduling
  /// a completion event; returns the instant the work finishes. Used when
  /// the caller schedules the follow-up itself (e.g. message departure).
  SimTime charge(SimDuration service) { return charge_after(0, service); }

  /// Like charge(), but the work may not start before `not_before` (used to
  /// serialize the processing of one connection's messages).
  SimTime charge_after(SimTime not_before, SimDuration service);

  /// Total busy time accumulated across cores (for utilization reporting).
  [[nodiscard]] SimDuration busy_time() const { return busy_; }
  [[nodiscard]] int cores() const { return static_cast<int>(core_free_.size()); }

  /// Utilization in [0,1] over the window [from, to].
  [[nodiscard]] double utilization(SimTime from, SimTime to) const;

  /// Simulates a *pause* (process freeze, long GC, VM migration): no job
  /// starts before `until`, but work already queued resumes afterwards and
  /// nothing is lost. Contrast with crash_until().
  void block_until(SimTime until);

  /// Simulates a *crash with state loss*: every queued job is discarded
  /// (their completion callbacks never run), jobs submitted while the site
  /// is down vanish, and the cores sit idle until `until`. Callers model
  /// the loss of volatile protocol state separately (core::Replica::on_crash).
  void crash_until(SimTime until);

  /// Bumped by crash_until(); jobs submitted under an older epoch are dead.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Is the resource inside a crash window at `t`?
  [[nodiscard]] bool down_at(SimTime t) const { return t < down_until_; }

  /// Resets the busy-time counter (called at the end of warmup).
  void reset_accounting() { busy_ = 0; }

 private:
  Simulator& sim_;
  std::vector<SimTime> core_free_;  // next instant each core is idle
  SimDuration busy_ = 0;
  std::uint64_t epoch_ = 0;
  SimTime down_until_ = 0;
};

}  // namespace gdur::sim

#include "sim/cpu.h"

#include <algorithm>
#include <cassert>

namespace gdur::sim {

SimTime CpuResource::charge_after(SimTime not_before, SimDuration service) {
  assert(service >= 0);
  auto it = std::min_element(core_free_.begin(), core_free_.end());
  const SimTime start = std::max({sim_.now(), not_before, *it});
  const SimTime finish = start + service;
  *it = finish;
  busy_ += service;
  return finish;
}

void CpuResource::submit(SimDuration service, Simulator::Handle done) {
  if (down_at(sim_.now())) {  // a crashed site accepts no work
    sim_.drop(done);
    return;
  }
  sim_.at(charge(service), [this, e = epoch_, done] {
    if (e == epoch_)
      sim_.run_parked(done);
    else
      sim_.drop(done);  // lost in a crash
  });
}

void CpuResource::block_until(SimTime until) {
  for (auto& f : core_free_) f = std::max(f, until);
}

void CpuResource::crash_until(SimTime until) {
  ++epoch_;  // orphan every queued completion
  down_until_ = std::max(down_until_, until);
  for (auto& f : core_free_) f = std::max(sim_.now(), until);
}

double CpuResource::utilization(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  const double capacity =
      static_cast<double>(to - from) * static_cast<double>(core_free_.size());
  return std::min(1.0, static_cast<double>(busy_) / capacity);
}

}  // namespace gdur::sim

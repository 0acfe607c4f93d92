// Geo-replicated network topology: per-pair one-way latencies and a link
// bandwidth. The paper's testbed (Grid'5000) has 10-20 ms inter-site
// latencies; Topology::geo() reproduces that envelope deterministically.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace gdur::net {

class Topology {
 public:
  /// `n` sites with all pairwise one-way latencies drawn uniformly from
  /// [min_latency, max_latency] (symmetric), seeded deterministically.
  static Topology geo(int n, SimDuration min_latency = milliseconds(10),
                      SimDuration max_latency = milliseconds(20),
                      std::uint64_t seed = 7);

  /// `n` sites with one fixed latency between every distinct pair.
  static Topology uniform(int n, SimDuration latency);

  [[nodiscard]] int sites() const { return n_; }

  [[nodiscard]] SimDuration latency(SiteId from, SiteId to) const {
    return lat_[from * static_cast<SiteId>(n_) + to];
  }
  void set_latency(SiteId from, SiteId to, SimDuration d) {
    lat_[from * static_cast<SiteId>(n_) + to] = d;
    lat_[to * static_cast<SiteId>(n_) + from] = d;
  }

  /// Link bandwidth in bytes per simulated second (transmission delay model).
  [[nodiscard]] double bandwidth_bps() const { return bandwidth_; }

  /// Latency between a client machine and its co-located replica (LAN).
  [[nodiscard]] SimDuration client_latency() const { return client_latency_; }

 private:
  Topology(int n) : n_(n), lat_(static_cast<std::size_t>(n) * n, 0) {}

  int n_;
  std::vector<SimDuration> lat_;
  double bandwidth_ = 125e6;  // 1 Gbit/s
  SimDuration client_latency_ = microseconds(300);
};

}  // namespace gdur::net

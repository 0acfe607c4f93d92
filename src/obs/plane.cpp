#include "obs/plane.h"

#include <cinttypes>
#include <cstdio>

namespace gdur::obs {

ObsPlane::ObsPlane(ObsPlaneConfig cfg)
    : cfg_(cfg),
      stats_(cfg.sites + 1),  // + one slot for the shared live runtime
      flight_(cfg.sites, cfg.flight_capacity),
      watchdog_(cfg.stall_after) {
  if (cfg.single_writer)
    for (std::size_t i = 0; i < stats_.slots(); ++i)
      stats_.slot(i).set_single_writer(true);
  watchdog_.set_on_trip([this](const StallWatchdog::StallEvent& e) {
    slot(e.site == kNoSite ? 0 : e.site).record(Counter::kWatchdogTrips);
    ring(e.site == kNoSite ? 0 : e.site)
        .append("watchdog_trip", e.at, e.site, e.pending, 0);
    dump_flight("watchdog");
  });
  invariants_.set_on_violation([this](const InvariantMonitor::Violation& v) {
    slot(v.site == kNoSite ? 0 : v.site)
        .record(Counter::kInvariantViolations);
    ring(v.site == kNoSite ? 0 : v.site)
        .append("invariant_violation", v.at, v.site, v.txn.coord, v.txn.seq);
    dump_flight("invariant");
  });
}

std::uint64_t ObsPlane::total(Counter c) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < stats_.slots(); ++i) n += stats_.slot(i).value(c);
  return n;
}

void ObsPlane::dump_flight(const char* reason) {
  // Render outside the mutex: collect() only reads ring atomics.
  std::string text = flight_.dump_text(reason);
  std::string json = flight_.dump_chrome_json(reason);
  slot(0).record(Counter::kFlightDumps);
  DumpSink sink;
  {
    MutexLock lock(&mu_);
    ++dumps_;
    last_dump_ = text;
    last_reason_ = reason;
    sink = sink_;
  }
  if (sink) sink(reason, text, json);
}

std::string ObsPlane::snapshot_json(SimTime now) const {
  const auto snap = stats_.snapshot(now);
  std::string stats_json = StatsRegistry::to_json(snap);
  // Splice the plane-level sections into the stats object: replace the
  // final "}\n" with the extra fields.
  if (stats_json.size() >= 2) stats_json.erase(stats_json.size() - 2);
  char buf[256];
  std::string out = stats_json;
  out += ",\n  \"watchdog\": {";
  snprintf(buf, sizeof buf, "\"trips\": %" PRIu64 ", \"probes\": [",
           watchdog_.trips());
  out += buf;
  const auto wevents = watchdog_.events();
  for (std::size_t i = 0; i < wevents.size(); ++i) {
    snprintf(buf, sizeof buf,
             "%s{\"probe\": \"%s\", \"site\": %u, \"at_ns\": %" PRId64
             ", \"pending\": %" PRIu64 "}",
             i ? ", " : "", wevents[i].probe.c_str(), wevents[i].site,
             wevents[i].at, wevents[i].pending);
    out += buf;
  }
  out += "]},\n  \"invariants\": {";
  snprintf(buf, sizeof buf, "\"violations\": %" PRIu64 ", \"events\": [",
           invariants_.violations());
  out += buf;
  const auto ievents = invariants_.events();
  for (std::size_t i = 0; i < ievents.size(); ++i) {
    snprintf(buf, sizeof buf,
             "%s{\"invariant\": \"%s\", \"site\": %u, \"txn\": \"T%u.%" PRIu64
             "\", \"at_ns\": %" PRId64 "}",
             i ? ", " : "", ievents[i].invariant, ievents[i].site,
             ievents[i].txn.coord, ievents[i].txn.seq, ievents[i].at);
    out += buf;
  }
  out += "]},\n  \"flight\": {";
  snprintf(buf, sizeof buf,
           "\"dumps\": %" PRIu64 ", \"last_reason\": \"%s\"}\n}\n", dumps(),
           last_dump_reason().c_str());
  out += buf;
  return out;
}

std::string ObsPlane::snapshot_prometheus(SimTime now) const {
  std::string out = StatsRegistry::to_prometheus(stats_.snapshot(now));
  char buf[128];
  snprintf(buf, sizeof buf, "gdur_watchdog_trips_total %" PRIu64 "\n",
           watchdog_.trips());
  out += buf;
  snprintf(buf, sizeof buf, "gdur_invariant_violations_total %" PRIu64 "\n",
           invariants_.violations());
  out += buf;
  snprintf(buf, sizeof buf, "gdur_flight_dumps_total %" PRIu64 "\n", dumps());
  out += buf;
  return out;
}

}  // namespace gdur::obs

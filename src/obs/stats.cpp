#include "obs/stats.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace gdur::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTxnSubmitted: return "txn_submitted";
    case Counter::kTxnCommitted: return "txn_committed";
    case Counter::kTxnAborted: return "txn_aborted";
    case Counter::kTermDelivered: return "term_delivered";
    case Counter::kCertified: return "certified";
    case Counter::kVotesSent: return "votes_sent";
    case Counter::kVotesRecv: return "votes_recv";
    case Counter::kDecisions: return "decisions";
    case Counter::kApplies: return "applies";
    case Counter::kWalAppends: return "wal_appends";
    case Counter::kEpochActivations: return "epoch_activations";
    case Counter::kMsgsSent: return "msgs_sent";
    case Counter::kBytesSent: return "bytes_sent";
    case Counter::kMsgsDropped: return "msgs_dropped";
    case Counter::kRetransmits: return "retransmits";
    case Counter::kMsgsExpired: return "msgs_expired";
    case Counter::kOrderingMsgs: return "ordering_msgs";
    case Counter::kMailboxTasks: return "mailbox_tasks";
    case Counter::kTimerFires: return "timer_fires";
    case Counter::kLoopWakeups: return "loop_wakeups";
    case Counter::kFlightDumps: return "flight_dumps";
    case Counter::kInvariantViolations: return "invariant_violations";
    case Counter::kWatchdogTrips: return "watchdog_trips";
    case Counter::kClientSessions: return "client_sessions";
    case Counter::kClientOps: return "client_ops";
    case Counter::kClientPushbacks: return "client_pushbacks";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kCertifyUs: return "certify_us";
    case Hist::kQueueDepth: return "queue_depth";
    case Hist::kMsgBytes: return "msg_bytes";
    case Hist::kCount: break;
  }
  return "unknown";
}

StatsRegistry::StatsRegistry(int slots) {
  if (slots < 1) slots = 1;
  for (int i = 0; i < slots; ++i) slots_.emplace_back();
}

StatsRegistry::Snapshot StatsRegistry::snapshot(SimTime at) const {
  Snapshot s;
  s.at = at;
  s.per_slot.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const auto v = slots_[i].value(static_cast<Counter>(c));
      s.per_slot[i][c] = v;
      s.total[c] += v;
    }
    for (std::size_t h = 0; h < kHistCount; ++h)
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        s.hist[h][b] += slots_[i].bucket(static_cast<Hist>(h), b);
  }
  return s;
}

namespace {
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}
}  // namespace

std::string StatsRegistry::to_json(const Snapshot& s) {
  std::string out;
  out.reserve(4096);
  appendf(out, "{\n  \"at_ns\": %" PRId64 ",\n  \"counters\": {\n", s.at);
  for (std::size_t c = 0; c < kCounterCount; ++c)
    appendf(out, "    \"%s\": %" PRIu64 "%s\n",
            counter_name(static_cast<Counter>(c)), s.total[c],
            c + 1 < kCounterCount ? "," : "");
  out += "  },\n  \"per_slot\": [\n";
  for (std::size_t i = 0; i < s.per_slot.size(); ++i) {
    out += "    {";
    for (std::size_t c = 0; c < kCounterCount; ++c)
      appendf(out, "\"%s\": %" PRIu64 "%s",
              counter_name(static_cast<Counter>(c)), s.per_slot[i][c],
              c + 1 < kCounterCount ? ", " : "");
    out += i + 1 < s.per_slot.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"histograms\": {\n";
  for (std::size_t h = 0; h < kHistCount; ++h) {
    appendf(out, "    \"%s\": [", hist_name(static_cast<Hist>(h)));
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      appendf(out, "%" PRIu64 "%s", s.hist[h][b],
              b + 1 < kHistBuckets ? ", " : "");
    out += h + 1 < kHistCount ? "],\n" : "]\n";
  }
  out += "  }\n}\n";
  return out;
}

std::string StatsRegistry::to_prometheus(const Snapshot& s) {
  std::string out;
  out.reserve(4096);
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const char* name = counter_name(static_cast<Counter>(c));
    appendf(out, "# TYPE gdur_%s counter\n", name);
    appendf(out, "gdur_%s %" PRIu64 "\n", name, s.total[c]);
    for (std::size_t i = 0; i < s.per_slot.size(); ++i)
      if (s.per_slot[i][c] != 0)
        appendf(out, "gdur_%s{slot=\"%zu\"} %" PRIu64 "\n", name, i,
                s.per_slot[i][c]);
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const char* name = hist_name(static_cast<Hist>(h));
    appendf(out, "# TYPE gdur_%s histogram\n", name);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      cum += s.hist[h][b];
      if (s.hist[h][b] != 0)
        appendf(out, "gdur_%s_bucket{le=\"%llu\"} %" PRIu64 "\n", name,
                (unsigned long long)(1ULL << (b + 1)) - 1, cum);
    }
    appendf(out, "gdur_%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, cum);
    appendf(out, "gdur_%s_count %" PRIu64 "\n", name, cum);
  }
  return out;
}

}  // namespace gdur::obs

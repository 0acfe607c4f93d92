#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace gdur::obs {

namespace {

std::size_t idx(Phase p) { return static_cast<std::size_t>(p); }

/// Appends `ns` nanoseconds as a decimal microsecond value ("12.345") using
/// integer math only, so the output is bit-identical across platforms.
void append_us(std::string& out, SimTime ns) {
  char buf[40];
  if (ns < 0) {
    out += '-';
    ns = -ns;
  }
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
}

}  // namespace

void TraceRecorder::push(const TraceEvent& e) {
  if (!cfg_.spans) return;
  if (events_.size() >= cfg_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void TraceRecorder::reset_counters() {
  MutexLock lock(&mu_);
  msg_count_.fill(0);
}

// ---------------------------------------------------------------------------
// Transaction lifecycle.
// ---------------------------------------------------------------------------

void TraceRecorder::txn_started(const TxnId& id, SiteId /*coord*/,
                                SimTime begin_req, SimTime now) {
  MutexLock lock(&mu_);
  Live& lv = live_[id];
  lv.begin = begin_req;
  lv.got_record = now;
}

void TraceRecorder::txn_op(const TxnId& id, Phase p, SiteId coord,
                           SimTime start, SimTime now) {
  MutexLock lock(&mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return;
  if (p == Phase::kRead)
    it->second.read_time += now - start;
  else if (p == Phase::kWriteBuffer)
    it->second.write_time += now - start;
  push(TraceEvent{.kind = TraceEvent::Kind::kSpan,
                  .name = phase_name(p),
                  .cat = "op",
                  .site = coord,
                  .track = lane_of(id),
                  .ts = start,
                  .dur = now - start,
                  .txn = id});
}

void TraceRecorder::txn_submitted(const TxnId& id, SiteId /*site*/, SimTime now,
                                  bool read_only) {
  MutexLock lock(&mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.submit = now;
  it->second.read_only = read_only;
  it->second.has_term = true;
}

void TraceRecorder::term_delivered(const TxnId& id, SiteId site, SimTime now) {
  MutexLock lock(&mu_);
  if (site == id.coord) {
    auto it = live_.find(id);
    if (it != live_.end()) it->second.delivered = now;
  }
  push(TraceEvent{.kind = TraceEvent::Kind::kInstant,
                  .name = "xdeliver",
                  .cat = "term",
                  .site = site,
                  .track = lane_of(id),
                  .ts = now,
                  .txn = id});
}

void TraceRecorder::certified(const TxnId& id, SiteId site, SimTime now,
                              SimDuration service, bool vote) {
  MutexLock lock(&mu_);
  if (site == id.coord) {
    auto it = live_.find(id);
    if (it != live_.end()) {
      it->second.cert_start = now - service;
      it->second.cert_end = now;
    }
  }
  push(TraceEvent{.kind = TraceEvent::Kind::kSpan,
                  .name = vote ? "certify:yes" : "certify:no",
                  .cat = "term",
                  .site = site,
                  .track = lane_of(id),
                  .ts = now - service,
                  .dur = service,
                  .txn = id});
}

void TraceRecorder::decided(const TxnId& id, SiteId site, SimTime now,
                            bool commit, AbortReason /*reason*/) {
  MutexLock lock(&mu_);
  if (site == id.coord) {
    auto it = live_.find(id);
    if (it != live_.end()) it->second.decide = now;
  }
  push(TraceEvent{.kind = TraceEvent::Kind::kInstant,
                  .name = commit ? "decide:commit" : "decide:abort",
                  .cat = "term",
                  .site = site,
                  .track = lane_of(id),
                  .ts = now,
                  .txn = id});
}

void TraceRecorder::applied(const TxnId& id, SiteId site, SimTime now,
                            SimDuration dur) {
  MutexLock lock(&mu_);
  if (site == id.coord) {
    auto it = live_.find(id);
    if (it != live_.end()) it->second.apply_time += dur;
  }
  push(TraceEvent{.kind = TraceEvent::Kind::kSpan,
                  .name = "apply",
                  .cat = "term",
                  .site = site,
                  .track = lane_of(id),
                  .ts = now,
                  .dur = dur,
                  .txn = id});
}

void TraceRecorder::txn_finished(const TxnId& id, SiteId coord, SimTime now,
                                 bool committed, bool read_only,
                                 AbortReason reason) {
  MutexLock lock(&mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return;
  it->second.read_only = it->second.has_term ? it->second.read_only : read_only;
  flush(id, it->second, coord, now, committed, reason);
  live_.erase(it);
}

void TraceRecorder::txn_timed_out(const TxnId& id, SiteId coord, SimTime now) {
  MutexLock lock(&mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return;
  flush(id, it->second, coord, now, false, AbortReason::kTimeout);
  live_.erase(it);
}

void TraceRecorder::flush(const TxnId& id, Live& lv, SiteId coord, SimTime now,
                          bool committed, AbortReason reason) {
  TxnPhaseReport r;
  r.id = id;
  r.coord = coord;
  r.read_only = lv.read_only;
  r.committed = committed;
  r.reason = committed ? AbortReason::kNone : reason;
  r.begin = lv.begin;
  r.end = now;
  // Execution phases (client perspective).
  const SimTime exec_end = lv.submit != 0 ? lv.submit : now;
  r.phase[idx(Phase::kExecute)] = exec_end - lv.begin;
  r.phase[idx(Phase::kRead)] = lv.read_time;
  r.phase[idx(Phase::kWriteBuffer)] = lv.write_time;
  // Termination phases (coordinator perspective); each anchor is only
  // meaningful when the previous one was recorded.
  if (lv.submit != 0 && lv.delivered != 0) {
    r.phase[idx(Phase::kXcast)] = lv.delivered - lv.submit;
    if (lv.cert_start != 0) {
      r.phase[idx(Phase::kCertWait)] = lv.cert_start - lv.delivered;
      r.phase[idx(Phase::kCertify)] = lv.cert_end - lv.cert_start;
      if (lv.decide != 0)
        r.phase[idx(Phase::kVoteCollect)] = lv.decide - lv.cert_end;
    }
  }
  r.phase[idx(Phase::kApply)] = lv.apply_time;
  if (lv.decide != 0) r.phase[idx(Phase::kClientResponse)] = now - lv.decide;
  if (sink_) sink_(r);
  if (cfg_.spans) {
    reports_.push_back(r);
    push(TraceEvent{.kind = TraceEvent::Kind::kSpan,
                    .name = committed ? "txn:commit" : "txn:abort",
                    .cat = "txn",
                    .site = coord,
                    .track = lane_of(id),
                    .ts = lv.begin,
                    .dur = now - lv.begin,
                    .txn = id});
  }
}

// ---------------------------------------------------------------------------
// Messages and faults.
// ---------------------------------------------------------------------------

void TraceRecorder::message(MsgClass cls, SiteId src, SiteId dst,
                            SimTime depart, SimTime arrive) {
  MutexLock lock(&mu_);
  ++msg_count_[static_cast<std::size_t>(cls)];
  push(TraceEvent{.kind = TraceEvent::Kind::kSpan,
                  .name = msg_class_name(cls),
                  .cat = "msg",
                  .site = src,
                  .track = 64 + dst,
                  .ts = depart,
                  .dur = arrive - depart});
}

void TraceRecorder::fault(FaultKind kind, SiteId site, SiteId peer,
                          SimTime now) {
  MutexLock lock(&mu_);
  push(TraceEvent{.kind = TraceEvent::Kind::kInstant,
                  .name = fault_kind_name(kind),
                  .cat = "fault",
                  .site = site,
                  .track = 96 + (peer == kNoSite ? 0 : peer),
                  .ts = now});
}

// ---------------------------------------------------------------------------
// Export.
// ---------------------------------------------------------------------------

std::string TraceRecorder::chrome_trace_json() const {
  MutexLock lock(&mu_);
  std::string out;
  out.reserve(events_.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process metadata: one "process" per site keeps Perfetto's track
  // grouping readable. Sites present = those that appear in events.
  std::vector<SiteId> sites;
  for (const TraceEvent& e : events_)
    if (e.site != kNoSite &&
        std::find(sites.begin(), sites.end(), e.site) == sites.end())
      sites.push_back(e.site);
  std::sort(sites.begin(), sites.end());
  char buf[64];
  for (SiteId s : sites) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%u", s);
    out += "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += buf;
    out += ",\"tid\":0,\"args\":{\"name\":\"site ";
    out += buf;
    out += "\"}}";
  }
  for (const TraceEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, e.cat);
    out += "\",\"ph\":\"";
    out += e.kind == TraceEvent::Kind::kSpan ? 'X' : 'i';
    out += "\",\"ts\":";
    append_us(out, e.ts);
    if (e.kind == TraceEvent::Kind::kSpan) {
      out += ",\"dur\":";
      append_us(out, e.dur);
    }
    std::snprintf(buf, sizeof buf, ",\"pid\":%u,\"tid\":%u",
                  e.site == kNoSite ? 9999u : e.site, e.track);
    out += buf;
    if (e.kind == TraceEvent::Kind::kInstant) out += ",\"s\":\"t\"";
    if (e.txn.valid()) {
      out += ",\"args\":{\"txn\":\"";
      out += e.txn.str();
      out += "\"}";
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string TraceRecorder::text_timeline() const {
  MutexLock lock(&mu_);
  std::string out;
  out.reserve(reports_.size() * 160);
  for (const TxnPhaseReport& r : reports_) {
    out += r.id.str();
    out += r.read_only ? " ro " : " upd";
    out += " begin=";
    append_us(out, r.begin);
    out += "us";
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out += ' ';
      out += phase_name(static_cast<Phase>(p));
      out += '=';
      append_us(out, r.phase[p]);
      out += "us";
    }
    out += " -> ";
    out += r.committed ? "COMMIT" : "ABORT";
    if (!r.committed) {
      out += '(';
      out += abort_reason_name(r.reason);
      out += ')';
    }
    out += '\n';
  }
  return out;
}

}  // namespace gdur::obs

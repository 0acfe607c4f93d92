#include "workload/client.h"

#include <algorithm>

namespace gdur::workload {

namespace {

/// One transaction in flight; owns itself until the terminal callback.
class TxnFlow : public std::enable_shared_from_this<TxnFlow> {
 public:
  TxnFlow(core::Cluster& cl, SiteId site, std::shared_ptr<const TxnProfile> p,
          harness::Metrics& metrics, TxnObserver observer,
          std::function<void()> done, SimTime intended)
      : cl_(cl),
        site_(site),
        profile_(std::move(p)),
        metrics_(metrics),
        observer_(std::move(observer)),
        done_(std::move(done)),
        begin_req_(intended) {}

  void begin() {
    auto self = shared_from_this();
    // Under faults a request or its response can be lost for good (crashed
    // coordinator, broken connection): give up after the cluster's client
    // timeout instead of hanging the client loop forever.
    if (cl_.client_timeout() > 0)
      cl_.run_after(site_, cl_.client_timeout(),
                    [self] { self->timeout(); });
    cl_.begin(site_, [self](core::MutTxnPtr t) {
      if (self->finished_) return;
      self->txn_ = t;
      if (auto* tr = self->cl_.trace())
        tr->txn_started(t->id, self->site_, self->begin_req_,
                        self->cl_.now());
      self->reads(t, 0);
    });
  }

 private:
  void reads(const core::MutTxnPtr& t, std::size_t i) {
    if (i == profile_->reads.size()) {
      writes(t, 0);
      return;
    }
    auto self = shared_from_this();
    const SimTime start = cl_.now();
    cl_.read(site_, t, profile_->reads[i], [self, t, i, start](bool ok) {
      if (self->finished_) return;
      if (auto* tr = self->cl_.trace())
        tr->txn_op(t->id, obs::Phase::kRead, self->site_, start,
                   self->cl_.now());
      if (!ok) {
        self->finish(*t, false, /*exec_failure=*/true, self->begin_req_);
        return;
      }
      self->reads(t, i + 1);
    });
  }

  void writes(const core::MutTxnPtr& t, std::size_t i) {
    if (i == profile_->writes.size()) {
      commit(t);
      return;
    }
    auto self = shared_from_this();
    const SimTime start = cl_.now();
    cl_.write(site_, t, profile_->writes[i], [self, t, i, start] {
      if (self->finished_) return;
      if (auto* tr = self->cl_.trace())
        tr->txn_op(t->id, obs::Phase::kWriteBuffer, self->site_, start,
                   self->cl_.now());
      self->writes(t, i + 1);
    });
  }

  void commit(const core::MutTxnPtr& t) {
    commit_req_ = cl_.now();
    auto self = shared_from_this();
    cl_.commit(site_, t, [self, t](bool ok) {
      if (self->finished_) return;
      self->finish(*t, ok, /*exec_failure=*/false, self->commit_req_);
    });
  }

  void timeout() {
    if (finished_) return;
    finished_ = true;
    ++metrics_.txns_timed_out;
    ++metrics_.aborts_by_reason[static_cast<std::size_t>(
        obs::AbortReason::kTimeout)];
    if (auto* tr = cl_.trace(); tr != nullptr && txn_)
      tr->txn_timed_out(txn_->id, site_, cl_.now());
    // Unknown outcome reported as non-committed: the history checker uses
    // commits affirmatively only, so this is conservative even when the
    // transaction in fact committed server-side.
    if (observer_ && txn_) observer_(*txn_, false);
    if (done_) done_();
  }

  void finish(const core::TxnRecord& t, bool committed, bool exec_failure,
              SimTime term_req) {
    if (finished_) return;
    finished_ = true;
    const SimTime now = cl_.now();
    const bool read_only = profile_->read_only;
    obs::AbortReason reason = obs::AbortReason::kNone;
    if (!committed) {
      reason = cl_.replica(site_).abort_reason(t.id, exec_failure);
      ++metrics_.aborts_by_reason[static_cast<std::size_t>(reason)];
    }
    if (exec_failure) {
      ++metrics_.exec_failures;
    } else if (committed) {
      (read_only ? metrics_.committed_ro : metrics_.committed_upd)++;
      metrics_.note_commit_epoch(t.epoch);
      metrics_.txn_latency.add(now - begin_req_);
      if (!read_only) metrics_.upd_term_latency.add(now - term_req);
    } else {
      (read_only ? metrics_.aborted_ro : metrics_.aborted_upd)++;
      if (!read_only) metrics_.upd_term_latency.add(now - term_req);
    }
    if (auto* tr = cl_.trace())
      tr->txn_finished(t.id, site_, now, committed, read_only, reason);
    if (observer_) observer_(t, committed);
    if (done_) done_();
  }

  core::Cluster& cl_;
  SiteId site_;
  std::shared_ptr<const TxnProfile> profile_;
  harness::Metrics& metrics_;
  TxnObserver observer_;
  std::function<void()> done_;
  core::MutTxnPtr txn_;     // last known record, for the timeout observer
  bool finished_ = false;   // terminal response seen or timed out
  SimTime begin_req_;  // the arrival's intended time: latency starts here
  SimTime commit_req_ = 0;
};

}  // namespace

void run_transaction(core::Cluster& cluster, SiteId site,
                     std::shared_ptr<const TxnProfile> profile,
                     harness::Metrics& metrics, const TxnObserver& observer,
                     std::function<void()> done,
                     std::optional<SimTime> intended) {
  std::make_shared<TxnFlow>(cluster, site, std::move(profile), metrics,
                            observer, std::move(done),
                            intended.value_or(cluster.now()))
      ->begin();
}

// ---------------------------------------------------------------------------

ClientActor::ClientActor(core::Cluster& cluster, SiteId site,
                         const WorkloadSpec& spec, harness::Metrics& metrics,
                         std::uint64_t seed)
    : cl_(cluster),
      site_(site),
      gen_(spec, cluster.partitioner(), site, seed),
      metrics_(metrics) {}

void ClientActor::start(SimTime at) {
  cl_.run_after(site_, std::max<SimDuration>(at - cl_.now(), 0),
                [this] { run_one(); });
}

void ClientActor::run_one() {
  if (stopped_.load(std::memory_order_acquire)) {
    idle_.store(true, std::memory_order_release);
    return;
  }
  ++txns_run_;
  run_transaction(cl_, site_, std::make_shared<const TxnProfile>(gen_.next()),
                  metrics_, observer_, [this] { run_one(); });
}

// ---------------------------------------------------------------------------

OpenLoopSource::OpenLoopSource(core::Cluster& cluster, SiteId site,
                               const WorkloadSpec& spec,
                               harness::Metrics& metrics, double rate_tps,
                               std::uint64_t seed)
    : cl_(cluster),
      site_(site),
      gen_(spec, cluster.partitioner(), site, seed),
      metrics_(metrics),
      arrivals_(rate_tps, mix64(seed ^ 0x9e3779b9)) {}

void OpenLoopSource::start(SimTime at) {
  arrivals_.start(at);
  cl_.simulator().at(at, [this] { arrive(); });
}

void OpenLoopSource::arrive() {
  if (cl_.simulator().now() >= stop_at_) return;
  ++offered_;
  run_transaction(cl_, site_,
                  std::make_shared<const TxnProfile>(gen_.next()), metrics_,
                  nullptr, nullptr, arrivals_.due());
  arrivals_.advance();
  cl_.simulator().at(arrivals_.due(), [this] { arrive(); });
}

}  // namespace gdur::workload

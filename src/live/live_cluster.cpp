#include "live/live_cluster.h"

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "net/codec.h"
#include "obs/trace.h"

namespace gdur::live {

namespace codec = net::codec;
using core::TxnPtr;

namespace {

/// Serializing decorator around the version oracle. The oracle is the one
/// piece of engine state shared across site threads (per-site clock slots
/// plus internal memo caches live in a single object), so in live mode every
/// call goes through one mutex. Uncontended in the common case: each call is
/// a few vector reads/writes.
class LockedOracle final : public versioning::VersionOracle {
 public:
  LockedOracle(std::unique_ptr<versioning::VersionOracle> inner,
               const store::Partitioner& part)
      : versioning::VersionOracle(part), inner_(std::move(inner)) {}

  [[nodiscard]] versioning::VersioningKind kind() const override {
    MutexLock lock(&mu_);
    return inner_->kind();
  }

  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    MutexLock lock(&mu_);
    return inner_->metadata_bytes();
  }

  void begin_snapshot(SiteId coord,
                      versioning::TxnSnapshot& snap) const override {
    MutexLock lock(&mu_);
    inner_->begin_snapshot(coord, snap);
  }

  [[nodiscard]] int choose(SiteId at, const store::ObjectChain* chain,
                           PartitionId p,
                           const versioning::TxnSnapshot& snap) const override {
    MutexLock lock(&mu_);
    return inner_->choose(at, chain, p, snap);
  }

  void note_read(const store::Version* v, PartitionId p,
                 versioning::TxnSnapshot& snap) const override {
    MutexLock lock(&mu_);
    inner_->note_read(v, p, snap);
  }

  [[nodiscard]] versioning::Stamp submit_stamp(
      SiteId coord, std::uint64_t coord_seq,
      const versioning::TxnSnapshot& snap) const override {
    MutexLock lock(&mu_);
    return inner_->submit_stamp(coord, coord_seq, snap);
  }

  std::vector<std::uint64_t> on_apply(
      SiteId at, versioning::Stamp& stamp,
      const std::vector<PartitionId>& parts_written,
      const versioning::TxnSnapshot& snap) override {
    MutexLock lock(&mu_);
    return inner_->on_apply(at, stamp, parts_written, snap);
  }

  std::uint64_t on_commit_observed(SiteId at) override {
    MutexLock lock(&mu_);
    return inner_->on_commit_observed(at);
  }

  void on_propagate(SiteId at, const versioning::Stamp& stamp) override {
    MutexLock lock(&mu_);
    inner_->on_propagate(at, stamp);
  }

  [[nodiscard]] bool visible(const store::Version& v, PartitionId p,
                             const versioning::TxnSnapshot& snap) const override {
    MutexLock lock(&mu_);
    return inner_->visible(v, p, snap);
  }

 private:
  mutable Mutex mu_;
  std::unique_ptr<versioning::VersionOracle> inner_ GUARDED_BY(mu_);
};

/// Returns `cfg` when live mode can honour it. Live mode is fault-free and
/// in-memory, and a reconfiguration plan would be scheduled on a simulator
/// the live runtime never runs, so each of those settings is refused by
/// name before the base class builds anything from it.
const core::ClusterConfig& supported(const core::ClusterConfig& cfg) {
  const auto refuse = [](const char* field) {
    throw std::invalid_argument(std::string("LiveCluster: ") + field +
                                " is not supported in live mode");
  };
  if (cfg.durable) refuse("durable");
  if (!cfg.faults.empty()) refuse("faults");
  if (cfg.client_timeout != 0) refuse("client_timeout");
  if (cfg.term_timeout != 0) refuse("term_timeout");
  if (!cfg.reconfig.empty()) refuse("reconfig");
  return cfg;
}

/// The transaction record `m` carries in full (multicast steps and
/// deliveries), or nullptr.
const TxnPtr* full_record(const net::Msg& m) {
  return std::visit(
      [](const auto& x) -> const TxnPtr* {
        if constexpr (requires { x.msg->txn; })
          return &x.msg->txn;
        else
          return nullptr;
      },
      m);
}

/// The transaction of a message the codec ships as an id only (votes,
/// decisions, Paxos rounds), or nullptr.
TxnPtr* id_ref(net::Msg& m) {
  return std::visit(
      [](auto& x) -> TxnPtr* {
        using M = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<M, net::VoteMsg> ||
                      std::is_same_v<M, net::DecisionMsg> ||
                      std::is_same_v<M, net::Paxos2aMsg> ||
                      std::is_same_v<M, net::Paxos2bMsg>)
          return &x.txn;
        else
          return nullptr;
      },
      m);
}

/// With coalescing on, a frame at most this long rides in a batch.
constexpr std::size_t kSmallFrame = 128;
/// Batch flush thresholds: a batch ships early once it carries this many
/// messages or payload bytes, whichever first; otherwise it rides until
/// the site's mailbox runs dry.
constexpr std::size_t kBatchMaxMsgs = 64;
constexpr std::size_t kBatchMaxBytes = 16 * 1024;

}  // namespace

LiveCluster::LiveCluster(const LiveConfig& cfg, core::ProtocolSpec spec)
    : core::Cluster(supported(cfg.base), std::move(spec)) {
  // Swap in the serializing oracle before any thread exists.
  oracle_ = std::make_unique<LockedOracle>(std::move(oracle_), part_);
  t0_ = std::chrono::steady_clock::now();
  coalesce_ = cfg.coalesce;
  self_ = cfg.self;

  const int n = sites();
  rx_state_.resize(n);
  batchers_.resize(n);
  for (auto& b : batchers_) {
    b.per_dst.resize(std::size_t(n));
    b.bytes.assign(std::size_t(n), 0);
  }
  mailboxes_.reserve(n);
  for (int s = 0; s < n; ++s) mailboxes_.push_back(std::make_unique<Mailbox>());
  if (coalesce_) {
    for (SiteId s = 0; s < static_cast<SiteId>(n); ++s) {
      if (!hosted(s)) continue;
      mailboxes_[s]->set_idle([this, s] { flush_batches(s); });
    }
  }
  if (shard_lanes_enabled()) {
    const std::size_t lanes =
        std::size_t(n) * std::size_t(shards_per_site());
    shard_mailboxes_.reserve(lanes);
    shard_mu_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      shard_mailboxes_.push_back(std::make_unique<Mailbox>());
      shard_mu_.push_back(std::make_unique<Mutex>());
    }
  }

  const auto& topo = net_->topology();
  for (SiteId i = 0; i < static_cast<SiteId>(n); ++i)
    for (SiteId j = 0; j < static_cast<SiteId>(n); ++j)
      link_delay_.emplace_back(static_cast<std::int64_t>(
          static_cast<double>(topo.latency(i, j)) * cfg.delay_scale));
  // A frame's decode runs on its destination's mailbox; on a delayed link
  // it waits there as a timer. The delay is constant per link and frames
  // arrive in link order, so their deadlines are too, and equal deadlines
  // fall due in arming order: the link stays FIFO.
  auto deliver = [this, n](SiteId src, SiteId dst,
                           std::vector<std::uint8_t> f) {
    Task decode = [this, src, dst, f = std::move(f)] { on_frame(src, dst, f); };
    const auto d = link_delay_[std::size_t(src) * std::size_t(n) + dst];
    if (d.count() == 0)
      post(dst, std::move(decode));
    else
      mailboxes_[dst]->post_at(Mailbox::Clock::now() + d, std::move(decode));
  };
  transport_live_ = std::make_unique<LiveTransport>(
      n, cfg.self, cfg.peers, plane(), std::move(deliver));

  // Telemetry: each site's mailbox thread records into that site's slot;
  // the reactor thread and the mailboxes' timer fires share the runtime
  // slot.
  // Live mode has concurrent writers per slot (site thread + transport
  // delivery + attendant), so force the atomic-RMW record path even if
  // the caller built the plane for a single-writer sim run.
  obs::ObsPlane& p = plane();
  for (std::size_t i = 0; i < p.stats().slots(); ++i)
    p.stats().slot(i).set_single_writer(false);
  for (int s = 0; s < n; ++s)
    mailboxes_[s]->set_stats(&p.slot(static_cast<SiteId>(s)),
                             &p.runtime_slot());
  // Shard certifier workers record into their site's slot (atomic RMW
  // path — single-writer was just forced off above).
  for (std::size_t i = 0; i < shard_mailboxes_.size(); ++i)
    shard_mailboxes_[i]->set_stats(
        &p.slot(static_cast<SiteId>(i / std::size_t(shards_per_site()))));
  transport_live_->reactor().set_stats(&p.runtime_slot());
}

LiveCluster::~LiveCluster() { stop(); }

void LiveCluster::start() {
  if (started_) return;
  started_ = true;
  t0_ = std::chrono::steady_clock::now();
  transport_live_->start();
  // Hosted-site gating: in a multi-process deployment this process spawns
  // worker threads only for the site it hosts; the other sites' mailboxes
  // exist (indices must line up) but never receive work.
  threads_.reserve(mailboxes_.size());
  for (std::size_t s = 0; s < mailboxes_.size(); ++s) {
    if (!hosted(static_cast<SiteId>(s))) continue;
    threads_.emplace_back([m = mailboxes_[s].get()] { m->run(); });
  }
  shard_threads_.reserve(shard_mailboxes_.size());
  for (std::size_t i = 0; i < shard_mailboxes_.size(); ++i) {
    if (!hosted(static_cast<SiteId>(i / std::size_t(shards_per_site()))))
      continue;
    shard_threads_.emplace_back([m = shard_mailboxes_[i].get()] { m->run(); });
  }

  // Stall watchdog: every work queue in the live runtime registers its
  // progress/pending probe pair. All gauges are relaxed-atomic reads, so
  // the scanning thread never blocks a site thread. stop() clears the
  // probes before tearing down what they read.
  auto& wd = plane().watchdog();
  for (SiteId s = 0; s < static_cast<SiteId>(sites()); ++s) {
    if (!hosted(s)) continue;  // no thread drains it — nothing to probe
    Mailbox* m = mailboxes_[s].get();
    wd.add_probe(
        "mailbox", s, [m] { return m->executed(); },
        [m] {
          // executed first: a task finishing between the reads inflates
          // pending transiently instead of wrapping it negative.
          const std::uint64_t e = m->executed();
          const std::uint64_t q = m->posted();
          return q > e ? q - e : 0;
        });
    core::Replica* r = replicas_[s].get();
    wd.add_probe(
        "cert_queue", s, [r] { return r->queue_pops(); },
        [r] {
          const std::uint64_t e = r->queue_pops();
          const std::uint64_t q = r->queue_pushes();
          return q > e ? q - e : 0;
        });
  }
  if (!shard_mailboxes_.empty()) {
    // One probe per site aggregating its shard certifier workers: a wedged
    // shard thread (e.g. a lock-order bug) shows up as rising pending with
    // flat progress, same as any other stalled queue.
    const int S = shards_per_site();
    for (SiteId s = 0; s < static_cast<SiteId>(sites()); ++s) {
      if (!hosted(s)) continue;
      wd.add_probe(
          "shard_cert", s,
          [this, s, S] {
            std::uint64_t e = 0;
            for (int sh = 0; sh < S; ++sh) e += shard_box(s, sh).executed();
            return e;
          },
          [this, s, S] {
            // executed first (see the mailbox probe above).
            std::uint64_t e = 0;
            std::uint64_t q = 0;
            for (int sh = 0; sh < S; ++sh) e += shard_box(s, sh).executed();
            for (int sh = 0; sh < S; ++sh) q += shard_box(s, sh).posted();
            return q > e ? q - e : 0;
          });
    }
  }
  front::Reactor& r = transport_live_->reactor();
  wd.add_probe(
      "event_loop", kNoSite, [&r] { return r.wakeups(); },
      [&r] { return r.pending_out_bytes(); });
}

void LiveCluster::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // A supplied plane's watchdog outlives the cluster; drop its probes
  // before destroying the state they read.
  plane().watchdog().clear_probes();
  // Order matters: silence the reactor first so no new frame lands in a
  // mailbox, then stop the site threads (a stopped mailbox discards its
  // armed timers). Base-class teardown (replicas, oracle) happens only
  // after every thread has joined.
  transport_live_->stop();
  // Shard workers before site threads: a certify task posted to a stopped
  // mailbox is dropped (Mailbox contract), never half-run on a dead thread.
  for (auto& mb : shard_mailboxes_) mb->stop();
  for (auto& mb : mailboxes_) mb->stop();
  for (auto& th : shard_threads_) th.join();
  for (auto& th : threads_) th.join();
  shard_threads_.clear();
  threads_.clear();
}

void LiveCluster::post(SiteId at, Task fn) {
  mailboxes_[at]->post(std::move(fn));
}

SimTime LiveCluster::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void LiveCluster::run_after(SiteId at, SimDuration delay, Task fn) {
  mailboxes_[at]->post_at(
      Mailbox::Clock::now() + std::chrono::nanoseconds(delay), std::move(fn));
}

void LiveCluster::run_local(SiteId at, SimDuration /*service*/, Task fn) {
  post(at, std::move(fn));
}

void LiveCluster::lock_shards(SiteId at, core::ShardSet s) {
  s.for_each([&](int sh) { shard_mutex(at, sh).lock(); });
}

void LiveCluster::unlock_shards(SiteId at, core::ShardSet s) {
  s.for_each([&](int sh) { shard_mutex(at, sh).unlock(); });
}

void LiveCluster::run_certify(SiteId at, const core::TxnPtr& t,
                              SimDuration service,
                              std::function<bool()> compute,
                              std::function<void(bool)> done) {
  if (shard_mailboxes_.empty()) {
    if (live_certify_model_ && service > 0) {
      // Serial pipeline under the certify-service model: the wait runs on
      // the site thread, stalling the whole pipeline for its duration —
      // that IS the serial baseline the sharded cores-scaling runs compare
      // against (a single certifier processes verdicts back to back).
      post(at, [service, compute = std::move(compute),
                done = std::move(done)]() mutable {
        // gdur-lint: allow(live/blocking-call) certify-service model: the stall IS the modeled serial certifier occupancy
        std::this_thread::sleep_for(std::chrono::nanoseconds(service));
        done(compute());
      });
      return;
    }
    // Serial live runtime: the base posts the verdict computation straight
    // onto the site mailbox (via run_local) — single-threaded as before.
    core::Cluster::run_certify(at, t, service, std::move(compute),
                               std::move(done));
    return;
  }
  const core::ShardSet touched = core::touched_shards(*t, shards_per_site());
  // The task runs on the lead (lowest) touched shard's worker; transactions
  // with disjoint shard footprints land on different workers and certify
  // concurrently. `compute` only reads replica state, and every writer of
  // that state holds ALL of this site's shard mutexes (the apply exclusion),
  // so holding the touched subset suffices.
  shard_box(at, touched.first())
      .post([this, at, touched, service, compute = std::move(compute),
             done = std::move(done)]() mutable {
        if (live_certify_model_ && service > 0) {
          // Pipeline-model mode: wait out the analytic certification service
          // time before computing. Waiting shard workers overlap even on a
          // single hardware core, so cores-scaling runs measure the
          // pipeline's parallelism rather than the host's core count
          // (EXPERIMENTS.md, cores-scaling methodology).
          // gdur-lint: allow(live/blocking-call) blocks a shard worker, never the event loop or a site mailbox thread
          std::this_thread::sleep_for(std::chrono::nanoseconds(service));
        }
        lock_shards(at, touched);
        const bool v = compute();
        unlock_shards(at, touched);
        // The verdict re-enters the single-threaded replica on its own
        // mailbox; everything downstream of cast_vote stays site-threaded.
        post(at, [done = std::move(done), v] { done(v); });
      });
}

void LiveCluster::run_apply(SiteId /*at*/, const core::TxnPtr& /*t*/,
                            SimDuration /*cost*/) {
  // Real CPU was already spent installing the write-set inside the apply
  // exclusion; the analytic lane charge is sim-only.
}

void LiveCluster::with_apply_exclusion(SiteId at,
                                       const std::function<void()>& fn) {
  if (shard_mailboxes_.empty()) {
    fn();
    return;
  }
  core::ShardSet all;
  for (int sh = 0; sh < shards_per_site(); ++sh) all.insert(sh);
  lock_shards(at, all);
  fn();
  unlock_shards(at, all);
}

// --- client seam -------------------------------------------------------------

void LiveCluster::client_request(SiteId coord, std::uint64_t /*bytes*/,
                                 Task fn) {
  post(coord, std::move(fn));
}

void LiveCluster::client_reply(SiteId /*coord*/, std::uint64_t /*bytes*/,
                               Task fn) {
  fn();
}

// --- wire plumbing -----------------------------------------------------------

void LiveCluster::flush_batch(SiteId from, SiteId to) {
  auto& b = batchers_[from];
  auto& q = b.per_dst[to];
  if (q.empty()) return;
  if (q.size() == 1) {
    // A lone message gains nothing from the container; ship it bare.
    transport_live_->send(from, to, std::move(q.front()));
  } else {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::MsgType::kBatch));
    codec::encode(w, q);
    batches_sent_.fetch_add(1, std::memory_order_relaxed);
    batched_msgs_.fetch_add(q.size(), std::memory_order_relaxed);
    transport_live_->send(from, to, w.take());
  }
  q.clear();
  b.bytes[to] = 0;
}

void LiveCluster::flush_batches(SiteId from) {
  auto& b = batchers_[from];
  for (SiteId d = 0; d < static_cast<SiteId>(b.per_dst.size()); ++d)
    flush_batch(from, d);
}

void LiveCluster::ship(SiteId from, SiteId to, net::Msg m) {
  // Runs on `from`'s mailbox thread. A site knows every record it sends in
  // full, so answers naming the transaction by id resolve here too (a
  // coordinator need not be a destination of its own transaction).
  if (const TxnPtr* t = full_record(m)) remember(from, *t);
  codec::Writer w;
  if (from != to) codec::encode(w, m);
  if (trace_ != nullptr) {
    // Traced as sent, self-sends included (the sim counts them too).
    const SimTime ts = now();
    trace_->message(net::msg_class(m), from, to, ts, ts);
  }
  if (from == to) {
    post(to, [this, from, to, m = std::move(m)] { receive(from, to, m); });
    return;
  }
  if (!coalesce_) {
    transport_live_->send(from, to, w.take());
    return;
  }
  auto& b = batchers_[from];
  if (const std::size_t size = w.size(); size <= kSmallFrame) {
    b.per_dst[to].push_back(w.take());
    b.bytes[to] += size;
    if (b.per_dst[to].size() >= kBatchMaxMsgs || b.bytes[to] >= kBatchMaxBytes)
      flush_batch(from, to);
    return;
  }
  // FIFO contract: anything coalesced toward `to` was logically sent before
  // this frame, so it must hit the socket first.
  flush_batch(from, to);
  transport_live_->send(from, to, w.take());
}

// --- inbound (always on dst's mailbox thread) --------------------------------

void LiveCluster::on_frame(SiteId src, SiteId dst,
                           const std::vector<std::uint8_t>& frame) {
  codec::Reader r(frame);
  if (!frame.empty() &&
      frame[0] == static_cast<std::uint8_t>(codec::MsgType::kBatch)) {
    (void)r.u8();
    if (auto items = codec::decode<codec::Batch>(r)) {
      // Each item is a complete tagged frame; taking them in append order
      // keeps per-link FIFO across coalescing.
      for (const auto& inner : *items) on_frame(src, dst, inner);
      return;
    }
  } else if (auto m = codec::decode<net::Msg>(r)) {
    arrive(src, dst, std::move(*m));
    return;
  }
  GDUR_WARN("live: dropping malformed frame type=%u src=%u dst=%u",
            frame.empty() ? 0U : static_cast<unsigned>(frame[0]),
            static_cast<unsigned>(src), static_cast<unsigned>(dst));
}

void LiveCluster::arrive(SiteId from, SiteId to, net::Msg m) {
  if (TxnPtr* ref = id_ref(m)) {
    const TxnId id = (*ref)->id;
    auto& st = rx_state_[to];
    if (auto it = st.txns.find(id); it != st.txns.end()) {
      *ref = it->second;
    } else if (!std::holds_alternative<net::Paxos2aMsg>(m) &&
               replica(to).known_outcome(id) == nullptr) {
      st.parked[id].emplace_back(from, std::move(m));
      return;
    }
    // Otherwise the message runs with its decoded stub (id set, epoch 0,
    // the only epoch live mode runs). Acceptor logic needs only the
    // transaction's identity, and an acceptor need not be a certification
    // participant; a vote, decision or Paxos 2b about a transaction decided
    // here is answered from the outcome before its handler reads more of
    // the record than its id and epoch (answer_if_decided, known_outcome).
  }
  receive(from, to, m);
  if (const TxnPtr* t = full_record(m)) learn(to, *t);
}

void LiveCluster::remember(SiteId at, const TxnPtr& t) {
  // A record that reaches a site after its outcome would never be
  // released: its term state is gone already.
  if (replica(at).known_outcome(t->id) != nullptr) return;
  rx_state_[at].txns.emplace(t->id, t);
}

void LiveCluster::term_released(SiteId at, const TxnId& id) {
  rx_state_[at].txns.erase(id);
}

std::size_t LiveCluster::records_held(SiteId s) const {
  return rx_state_[s].txns.size();
}

std::size_t LiveCluster::parked_count(SiteId s) const {
  std::size_t n = 0;
  for (const auto& [id, msgs] : rx_state_[s].parked) n += msgs.size();
  return n;
}

void LiveCluster::learn(SiteId at, const TxnPtr& t) {
  remember(at, t);
  auto& st = rx_state_[at];
  auto it = st.parked.find(t->id);
  if (it == st.parked.end()) return;
  auto parked = std::move(it->second);
  st.parked.erase(it);
  for (auto& [from, m] : parked) arrive(from, at, std::move(m));
}

}  // namespace gdur::live

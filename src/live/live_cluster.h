// LiveCluster — the G-DUR engine deployed on real sockets and threads.
//
// Inherits the entire protocol wiring from core::Cluster (partitioner,
// oracle, replicas, group communication, plug-in spec) and overrides only
// the scheduler seam and the ship hook: time is the wall clock, per-site
// work runs on a dedicated mailbox thread, and every inter-site message
// (net::Msg) travels as real bytes through net::codec over TCP
// (live::LiveTransport) — or, when a site sends to itself, is posted to
// its mailbox as the struct itself.
//
// Threading model
//   * One thread per site drains that site's Mailbox; the replica and all
//     its handlers run only there (the sim's single-threaded-site invariant,
//     preserved).
//   * With shards_per_site > 1 (DESIGN.md §14), one extra thread per
//     (site, shard) drains that shard's certifier mailbox. Certification
//     verdicts are computed there — pure reads of replica state — under the
//     touched shards' mutexes acquired in ascending shard order; the store
//     mutation on the apply path runs on the site thread holding ALL of the
//     site's shard mutexes (Cluster::with_apply_exclusion). Writer-holds-all
//     vs. reader-holds-at-least-one makes every certify-visible structure
//     (store chains, version index, recency window) safe to read off-thread.
//     The verdict re-enters the site mailbox, so everything downstream of
//     cast_vote stays single-threaded.
//   * One reactor thread moves bytes; it never touches protocol state —
//     it posts decode+dispatch tasks to the destination's mailbox, or, on
//     a link with an emulated delay, arms them there as timers.
//   * Timers (run_after) are armed on the site's own mailbox, which keeps
//     them in deadline order and runs them as tasks when they fall due:
//     one event queue per site, as in the simulator.
//   * The version oracle is the one piece of engine state shared across
//     sites (per-site clock slots live in one object); it is wrapped in a
//     serializing mutex decorator at construction.
//
// Group communication runs the simulator's own comm/ primitives over the
// sockets: Skeen's genuine multicast for AM-Cast and AMpw-Cast (only a
// transaction's destinations take steps), the fixed-sequencer uniform
// broadcast for AB-Cast, reliable multicast for 2PC / Paxos Commit. The one
// live-only receive step resolves messages the codec ships as a transaction
// id (votes, decisions, Paxos rounds) against the records the site has sent
// or received in full.
//
// What the simulator guarantees that live mode does not: determinism (thread
// and network scheduling are real), analytic CPU cost accounting (real CPU
// is spent instead), fault injection and durability (live runs are
// fault-free and in-memory), and reconfiguration (membership is fixed).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/thread_annotations.h"
#include "core/cluster.h"
#include "core/shard.h"
#include "live/live_transport.h"
#include "live/mailbox.h"

namespace gdur::live {

struct LiveConfig {
  /// Base deployment shape. Live mode is fault-free and in-memory and runs
  /// the fixed epoch-0 membership: the constructor throws
  /// std::invalid_argument, naming the field, when `durable`, `faults`,
  /// `client_timeout`, `term_timeout` or `reconfig` is set.
  core::ClusterConfig base;
  /// Emulated one-way link delay = topology latency × this factor
  /// (0 = raw loopback). Lets live runs reproduce geo-replication spacing:
  /// a frame's decode waits that long on the destination's mailbox.
  double delay_scale = 0.0;
  /// Coalesce small protocol messages (votes, decisions, Paxos rounds,
  /// stamp propagation) per destination into kBatch frames, flushed when
  /// the sending site's mailbox runs dry or the batch hits its size cap.
  /// Per-link FIFO is preserved: a direct (unbatched) frame to a
  /// destination flushes that destination's pending batch first.
  bool coalesce = false;
  /// Multi-process deployment: when `self` != kNoSite, this process hosts
  /// only site `self` — threads, replica activity and watchdog probes are
  /// spawned for it alone, and the transport dials `peers` (one endpoint
  /// per site, boot order free) instead of building the in-process mesh.
  /// kNoSite (default) hosts every site in this process.
  SiteId self = kNoSite;
  std::vector<SiteEndpoint> peers;
};

class LiveCluster : public core::Cluster {
 public:
  LiveCluster(const LiveConfig& cfg, core::ProtocolSpec spec);
  ~LiveCluster() override;

  /// Spawns the site and shard mailbox threads and the transport's
  /// reactor. Call once.
  /// Lifecycle lane (gdur-thread-confinement): the thread tables below are
  /// only mutated here, in stop() and in the constructor/destructor.
  GDUR_CONFINED("lifecycle") void start();
  /// Quiesces and joins everything. Idempotent; the destructor calls it.
  GDUR_CONFINED("lifecycle") void stop();

  /// Posts `fn` to site `at`'s mailbox (any thread).
  void post(SiteId at, Task fn);
  /// The wall-clock instant now() counts from.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return t0_;
  }

  // --- scheduler seam ---------------------------------------------------
  [[nodiscard]] SimTime now() const override;
  /// Arms `fn` as a timer on site `at`'s mailbox, due `delay` from now.
  void run_after(SiteId at, SimDuration delay, Task fn) override;
  /// Posts `fn` to site `at`'s mailbox: real CPU is spent executing the
  /// work, so the analytic `service` charge is sim-only.
  void run_local(SiteId at, SimDuration service, Task fn) override;
  /// Sharded certification (DESIGN.md §14): posts the verdict computation to
  /// the lead touched shard's worker thread, which takes the touched shard
  /// mutexes in ascending order, evaluates, and posts `done` back to the
  /// site mailbox. Serial (shards_per_site == 1) runs fall through to the
  /// base implementation, which posts to the site mailbox.
  void run_certify(SiteId at, const core::TxnPtr& t, SimDuration service,
                   std::function<bool()> compute,
                   std::function<void(bool)> done) override;
  /// Live apply cost is real CPU spent inside the exclusion — no analytic
  /// lane charge.
  void run_apply(SiteId at, const core::TxnPtr& t, SimDuration cost) override;
  /// Runs `fn` holding every shard mutex of `at` (ascending), excluding all
  /// concurrent shard certifiers. No-op wrapper when unsharded.
  void with_apply_exclusion(SiteId at,
                            const std::function<void()>& fn) override;
  [[nodiscard]] bool site_down(SiteId) const override { return false; }

  /// Frames / bytes (length prefixes included) put on inter-site links:
  /// the plane's kMsgsSent / kBytesSent summed over its site slots.
  [[nodiscard]] std::uint64_t live_messages() const {
    return site_total(obs::Counter::kMsgsSent);
  }
  [[nodiscard]] std::uint64_t live_bytes() const {
    return site_total(obs::Counter::kBytesSent);
  }
  /// Coalesced frames sent / messages carried inside them (0 with
  /// coalescing off). Site threads write, any thread reads.
  [[nodiscard]] std::uint64_t batches_sent() const {
    return batches_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t batched_msgs() const {
    return batched_msgs_.load(std::memory_order_relaxed);
  }

  /// True when this process runs site `s`'s threads (always true in the
  /// single-process mesh).
  [[nodiscard]] bool hosted(SiteId s) const {
    return self_ == kNoSite || s == self_;
  }

 protected:
  /// A client request posts straight onto the coordinator's mailbox; the
  /// reply is a plain call there (clients run on their site's thread).
  void client_request(SiteId coord, std::uint64_t bytes, Task fn) override;
  void client_reply(SiteId coord, std::uint64_t bytes, Task fn) override;
  /// A self-send is posted to the site's mailbox as the struct itself;
  /// anything else is encoded and queued on the (from, to) link. With
  /// coalescing on, a small frame joins the (from, to) batch, which ships at
  /// mailbox idle or at its size cap; the batcher is site-thread only, like
  /// every send, so it needs no lock.
  void ship(SiteId from, SiteId to, net::Msg m) override;

 private:
  /// Per-site receive state. Touched only by the site's mailbox thread.
  struct SiteState {
    /// Records this site sent or received in full, by id.
    std::unordered_map<TxnId, core::TxnPtr> txns;
    std::deque<TxnId> txn_fifo;  // bounded GC, mirrors Replica's caches
    /// Id-only messages that arrived before their record (links from
    /// different senders are not mutually ordered), with their senders, in
    /// arrival order.
    std::unordered_map<TxnId, std::vector<std::pair<SiteId, net::Msg>>>
        parked;
  };

  /// Per-site outbound coalescing state; touched only on that site's
  /// mailbox thread (sends happen inside mailbox tasks, the flush hook runs
  /// on the same thread at queue-dry).
  struct Batcher {
    /// dst -> pending tagged frame bodies awaiting one kBatch frame.
    std::vector<std::vector<std::vector<std::uint8_t>>> per_dst;
    std::vector<std::size_t> bytes;  // dst -> pending payload bytes
  };

  /// Decodes a frame that arrived on the (src, dst) link.
  void on_frame(SiteId src, SiteId dst, const std::vector<std::uint8_t>& frame);
  /// The one live-only receive step: an id-only transaction reference is
  /// resolved against the records `to` knows — or the message parked until
  /// its record arrives — then Cluster::receive runs the message.
  void arrive(SiteId from, SiteId to, net::Msg m);
  /// Records `t` at `at` if its id is unknown there (the first record wins).
  void remember(SiteId at, const core::TxnPtr& t);
  /// remember(), then runs the messages parked for `t`.
  void learn(SiteId at, const core::TxnPtr& t);
  /// Ships one destination's pending batch (site thread only).
  void flush_batch(SiteId from, SiteId to);
  /// Ships every pending batch of `from` (the mailbox idle hook).
  void flush_batches(SiteId from);
  /// Counter `c` summed over the plane's site slots.
  [[nodiscard]] std::uint64_t site_total(obs::Counter c) const;

  static constexpr std::size_t kTxnCacheCap = 200'000;

  /// (site, shard) → certifier worker mailbox / shard-slice mutex. Built in
  /// the constructor iff shard lanes are enabled; empty means serial mode.
  [[nodiscard]] Mailbox& shard_box(SiteId at, int shard) {
    return *shard_mailboxes_[std::size_t(at) *
                                 std::size_t(shards_per_site()) +
                             std::size_t(shard)];
  }
  [[nodiscard]] Mutex& shard_mutex(SiteId at, int shard) {
    return *shard_mu_[std::size_t(at) * std::size_t(shards_per_site()) +
                      std::size_t(shard)];
  }
  /// Sorted (ascending-shard) acquisition over a dynamic lock set — the one
  /// global order both certifiers and the apply exclusion use, so they can
  /// never deadlock. Dynamic sets defeat Clang TSA's static lock matching;
  /// gdur-lint's thread/shard-affinity rule checks the discipline instead.
  void lock_shards(SiteId at, core::ShardSet s) NO_THREAD_SAFETY_ANALYSIS;
  void unlock_shards(SiteId at, core::ShardSet s) NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Mailbox>> shard_mailboxes_;
  std::vector<std::unique_ptr<Mutex>> shard_mu_;
  // Thread tables: confined to the lifecycle lane (ctor/start/stop/dtor).
  // shard_mailboxes_ and shard_mu_ are deliberately NOT confined — they
  // are the cross-thread rendezvous, reached from every certifier lane.
  GDUR_CONFINED("lifecycle") std::vector<std::thread> threads_;
  GDUR_CONFINED("lifecycle") std::vector<std::thread> shard_threads_;
  std::vector<SiteState> rx_state_;
  std::vector<Batcher> batchers_;
  /// (src * sites + dst) -> emulated one-way delay (0 = none): topology
  /// latency × LiveConfig::delay_scale.
  std::vector<std::chrono::nanoseconds> link_delay_;
  std::unique_ptr<LiveTransport> transport_live_;
  std::chrono::steady_clock::time_point t0_;
  bool coalesce_ = false;
  SiteId self_ = kNoSite;
  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> batched_msgs_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace gdur::live

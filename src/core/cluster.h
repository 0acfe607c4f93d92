// Cluster — an assembled G-DUR deployment.
//
// Owns the simulator, the transport, the versioning oracle, the replicas,
// and the group-communication primitives, wired according to one
// ProtocolSpec. The client-facing API (begin/read/write/commit) models
// client machines co-located with each site, as in the paper's testbed:
// every operation is a LAN round trip to the coordinating replica.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/analysis_annotations.h"
#include "comm/atomic_broadcast.h"
#include "comm/port.h"
#include "comm/reliable_multicast.h"
#include "comm/skeen_multicast.h"
#include "core/membership.h"
#include "core/protocol_spec.h"
#include "core/replica.h"
#include "core/transaction.h"
#include "net/msg.h"
#include "net/transport.h"
#include "obs/plane.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "store/partitioner.h"
#include "store/wal.h"
#include "versioning/oracle.h"

namespace gdur::core {

struct ClusterConfig {
  int sites = 4;
  int replication = 1;  // 1 = Disaster Prone, 2 = Disaster Tolerant (§8.1)
  std::uint64_t objects_per_site = 100'000;
  int partitions_per_site = 1;
  int cores_per_site = 4;
  /// Intra-replica keyspace shards (P-DUR, DESIGN.md §14): each replica's
  /// certification pipeline splits into this many parallel lanes, one per
  /// keyspace slice (object o belongs to shard o mod S). Clamped to
  /// [1, core::kMaxShardsPerSite]. 1 = the serial pipeline; runs are then
  /// byte-identical to a build without the sharding layer.
  int shards_per_site = 1;
  /// Model per-shard execution lanes when shards_per_site > 1. Sim: certify
  /// and apply charges land on per-(site,shard) lane clocks instead of the
  /// shared site CPU; live: certification runs on per-shard threads. Off =
  /// sharded *data path* under the serial schedule — decisions still come
  /// from combined per-shard sub-votes, but event timing stays byte-
  /// identical to shards_per_site = 1 (the equivalence-test mode).
  bool shard_lanes = true;
  /// Live mode only: shard certifier threads wait out the analytic certify
  /// service time before computing the verdict, modeling a certification-
  /// bound store without assuming host core count (EXPERIMENTS.md §shards).
  bool live_certify_model = false;
  sim::CostModel cost{};
  SimDuration min_latency = milliseconds(10);
  SimDuration max_latency = milliseconds(20);
  std::uint64_t seed = 1;
  /// Durable mode (§7's persistence layer): termination-protocol state
  /// changes are logged to a per-site write-ahead log before they take
  /// effect, as §5.3 requires for 2PC in the crash-recovery model.
  bool durable = false;
  store::WalConfig wal{};
  /// Declarative fault plan (sim/fault). Empty = fault-free run. Crash
  /// windows require `durable = true`: recovery replays the WAL.
  sim::FaultPlan faults{};
  /// Coordinator-side termination timeout: an in-doubt transaction whose
  /// outcome is unknown this long after its termination was multicast is
  /// resolved (2PC/Paxos: presumed abort; GC: vote re-announcement).
  /// 0 disables; required for liveness whenever `faults` can lose messages.
  SimDuration term_timeout = 0;
  /// Client-side commit timeout: a client whose commit reply is lost gives
  /// up after this long and counts the transaction as timed out
  /// (conservatively non-committed). 0 disables.
  SimDuration client_timeout = 0;
  /// Trace recorder to attach (obs), or nullptr for a trace-free run. Not
  /// owned; must outlive the cluster. Every hook in the engine is a null
  /// check on this pointer, so a trace-free run is byte-identical to one
  /// built before the observability layer existed.
  obs::TraceRecorder* trace = nullptr;
  /// Production observability plane (obs/plane.h): always-on counters,
  /// flight recorder, stall watchdog and online invariant monitor. Every
  /// cluster records into one. nullptr = the cluster builds and owns a
  /// plane sized to `sites`; otherwise the supplied plane is used, not
  /// owned, and must outlive the cluster (to share it with a front door,
  /// or to read it after the cluster is gone). Recording never schedules
  /// events or charges CPU, so the plane never perturbs the simulation.
  /// The §5.3 window (Transport::messages_sent()) is read off the plane's
  /// totals, so a plane shared by two running simulated clusters mixes
  /// their windows.
  obs::ObsPlane* plane = nullptr;
  /// Online-reconfiguration schedule (core/membership). Empty = the fixed
  /// membership of the paper's experiments: every site is a member of the
  /// one epoch-0 view. With a plan, sites join/retire mid-run through the
  /// epoch protocol of DESIGN.md §12.
  ReconfigPlan reconfig{};
};

class Cluster : public comm::Port {
 public:
  Cluster(const ClusterConfig& cfg, ProtocolSpec spec);
  virtual ~Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ------------------------------------------------------------------
  // Client API (each call is one client->replica->client round trip).
  // ------------------------------------------------------------------
  void begin(SiteId coord, std::function<void(MutTxnPtr)> cb);
  void read(SiteId coord, const MutTxnPtr& t, ObjectId x,
            std::function<void(bool)> cb);
  void write(SiteId coord, const MutTxnPtr& t, ObjectId x,
             std::function<void()> cb);
  void commit(SiteId coord, const MutTxnPtr& t, std::function<void(bool)> cb);

  // ------------------------------------------------------------------
  // Scheduler seam. Replica and the client flow talk to the deployment
  // exclusively through these virtuals and the message path below, so one
  // protocol engine runs unchanged on the deterministic simulator (this
  // class) and on real sockets and threads (live::LiveCluster). The
  // contract either backend must honor: exactly-once delivery, FIFO per
  // (src,dst) link, and all handlers of one site running single-threaded.
  // ------------------------------------------------------------------
  /// Current time: virtual simulated time here, wall clock in live mode.
  [[nodiscard]] SimTime now() const override { return sim_.now(); }
  /// Runs `fn` on site `at`'s execution context after `delay`.
  void run_after(SiteId at, SimDuration delay, Task fn) override;
  /// Runs `fn` on site `at` after charging `service` CPU time (live mode
  /// spends real CPU instead and ignores the analytic charge).
  virtual void run_local(SiteId at, SimDuration service, Task fn);
  /// Certification seam (DESIGN.md §14): evaluates `compute()` for `t` on
  /// site `at` after charging `service`, then feeds the verdict to `done`
  /// on the site's execution context. The serial path (shards_per_site = 1
  /// or shard_lanes off) is exactly run_local — byte-identical schedules.
  /// With lanes, the sim charges the lanes of `t`'s touched shards (sorted
  /// shard order) and live mode runs `compute` on a shard thread holding
  /// the touched shard locks in ascending order.
  virtual void run_certify(SiteId at, const TxnPtr& t, SimDuration service,
                           std::function<bool()> compute,
                           std::function<void(bool)> done);
  /// Apply-path charge for installing `t`'s write set at `at` (the state
  /// change itself already happened synchronously). Serial path = plain
  /// run_local charge; lanes charge the write-set shards' lanes.
  virtual void run_apply(SiteId at, const TxnPtr& t, SimDuration cost);
  /// Runs `fn` (apply-side mutation of shard-partitioned replica state)
  /// excluded against concurrently-running shard certifiers: live mode
  /// holds every shard lock of `at` in ascending order; the sim and the
  /// serial path call `fn` directly.
  virtual void with_apply_exclusion(SiteId at,
                                    const std::function<void()>& fn);
  /// Is site `s` currently crashed? (Always false in live mode: the live
  /// runtime is fault-free.)
  [[nodiscard]] bool site_down(SiteId s) const override;
  /// Replica `at` erased `id`'s termination state (DESIGN.md §5), on `at`'s
  /// execution context. The simulator keeps nothing per transaction beside
  /// the replica; live mode drops the site's copy of the record.
  virtual void term_released(SiteId /*at*/, const TxnId& /*id*/) {}
  /// True when a fault plan drives this run: messages can be lost.
  [[nodiscard]] bool recovery_enabled() const override {
    return fault_ != nullptr;
  }

  // ------------------------------------------------------------------
  // Message path (net/msg.h). Every inter-site message leaves through
  // send() and arrives through receive() (below) on both backends; only the
  // ship() hook between them differs.
  // ------------------------------------------------------------------
  /// Sends `m` from site `from` to site `to`.
  void send(SiteId from, SiteId to, net::Msg m) final;

  /// Remote read (Algorithm 1 lines 13, 26-30): ships `t`'s snapshot to
  /// `target`, serves the read there, applies the chosen version at
  /// `from` via Replica::record_read, then runs `cb`.
  void remote_read(SiteId from, SiteId target, const MutTxnPtr& t, ObjectId x,
                   std::function<void(bool)> cb);

  // ------------------------------------------------------------------
  // Wiring used by Replica and by protocol plug-ins.
  // ------------------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Transport& transport() { return *net_; }
  /// Analytic cost model (CPU service times). Shared by both backends: the
  /// sim charges these durations, live mode uses them only where a real
  /// cost exists (e.g. nothing — real CPU is spent instead).
  [[nodiscard]] const sim::CostModel& cost() const { return net_->cost(); }
  [[nodiscard]] const store::Partitioner& partitioner() const { return part_; }
  [[nodiscard]] versioning::VersionOracle& oracle() { return *oracle_; }
  [[nodiscard]] const ProtocolSpec& spec() const { return spec_; }
  [[nodiscard]] Replica& replica(SiteId s) { return *replicas_[s]; }
  [[nodiscard]] int sites() const { return part_.sites(); }
  /// Intra-replica shard count (>= 1; see ClusterConfig::shards_per_site).
  [[nodiscard]] int shards_per_site() const { return shards_; }
  /// Are per-shard execution lanes modeled (shards > 1 and lanes on)?
  [[nodiscard]] bool shard_lanes_enabled() const {
    return shard_lanes_ && shards_ > 1;
  }

  // ------------------------------------------------------------------
  // Membership (core/membership, DESIGN.md §12).
  // ------------------------------------------------------------------
  /// Log of agreed views. Shared by all replicas: views are appended at the
  /// reconfiguration protocol's decision point, so indexing it by a
  /// transaction's epoch is sound everywhere.
  [[nodiscard]] MembershipLog& membership() { return members_; }
  /// Agreed view of epoch `e` (clamped to the latest agreed view).
  [[nodiscard]] const MembershipView& view(EpochId e) const {
    return members_.view(e);
  }
  /// The sites certifying `t` (its termination's destinations): the
  /// replicas of its certifying objects in view(t.epoch), or every member.
  [[nodiscard]] std::vector<SiteId> participants(const TxnRecord& t) const;
  /// True when a reconfiguration plan drives this run. Without one, every
  /// site belongs to the one epoch-0 view, so the epoch fences pass; the
  /// flag gates only what reconfiguration adds (DESIGN.md §12.4).
  [[nodiscard]] bool reconfig_enabled() const { return reconfig_enabled_; }
  /// Reconfiguration-protocol message (prepare/ack/activate/state transfer)
  /// over the simulator's transport — the one inter-site message outside
  /// net::Msg. ReconfigMsg has no codec, and the live backend refuses a
  /// ReconfigPlan, so this path is the simulator's own.
  void send_reconfig(SiteId from, SiteId to, ReconfigMsg m);

  /// Certification leader of partition `p` for transactions of epoch `e`.
  /// Group-communication certification counts only leader votes once
  /// reconfiguration is on: a replica that joined mid-run never witnessed
  /// the ordered certifications delivered before its join, so its verdicts
  /// on transactions overlapping that history can diverge from established
  /// replicas' — and S-DUR-style "any replica covers / any false aborts"
  /// outcome evaluation then decides *differently at different sites*. One
  /// deterministic authoritative voter per partition restores a
  /// site-independent outcome function.
  ///
  /// Leadership rotates deterministically by (epoch, partition) over the
  /// partition's *established* members of `view(e)` — those whose tenure
  /// predates the epoch, so they witnessed every ordered certification a
  /// transaction of `e` can overlap (fresh joiners stay ineligible until
  /// the next epoch). Every site evaluates the same pure function of the
  /// shared membership log, so the leader is site-independent per epoch but
  /// no longer pinned: certification load spreads across the replica set as
  /// epochs advance, instead of the longest-tenured site absorbing all of
  /// it. kNoSite when no replica of `p` is in the view.
  [[nodiscard]] SiteId cert_leader(PartitionId p, EpochId e) const;

  /// Versioning metadata bytes attached to messages under this spec.
  [[nodiscard]] std::uint64_t meta_bytes() const;

  /// Per-site write-ahead log, or nullptr when running in-memory.
  [[nodiscard]] store::WriteAheadLog* wal(SiteId s) {
    return wals_.empty() ? nullptr : wals_[s].get();
  }

  /// Fault injector driving this run, or nullptr on fault-free runs.
  [[nodiscard]] sim::FaultInjector* fault_injector() const {
    return fault_.get();
  }

  /// Attached trace recorder, or nullptr. Hooks must guard on this.
  [[nodiscard]] obs::TraceRecorder* trace() const { return trace_; }
  /// The observability plane: the supplied one, or the cluster's own.
  [[nodiscard]] obs::ObsPlane& plane() const override { return plane_; }
  [[nodiscard]] SimDuration term_timeout() const { return term_timeout_; }
  [[nodiscard]] SimDuration client_timeout() const { return client_timeout_; }
  /// True when replicas must arm termination timeouts / vote retries.
  [[nodiscard]] bool fault_tolerance_on() const {
    return fault_ != nullptr && term_timeout_ > 0;
  }

  /// Propagates `t` to replicas(certifying_obj(t)) with the spec's xcast
  /// (Algorithm 2 line 15). `dests` must be the sorted destination sites.
  void xcast_term(const TxnPtr& t, std::vector<SiteId> dests);


  /// Replica of `x` closest to `from` (for remote reads).
  [[nodiscard]] SiteId nearest_replica(SiteId from, ObjectId x) const;

  /// A committed version installed at a replica (for history checking).
  struct InstallEvent {
    ObjectId obj;
    TxnId writer;
    std::uint64_t pidx;
    SiteId site;
    SimTime time;
  };
  /// Observer invoked on every version install (tests/checker only; adds
  /// no cost when unset).
  void set_install_observer(std::function<void(const InstallEvent&)> obs) {
    install_observer_ = std::move(obs);
  }
  [[nodiscard]] const std::function<void(const InstallEvent&)>&
  install_observer() const {
    return install_observer_;
  }

  /// A certification vote leaving `voter` (2PC vote or Paxos 2a proposal;
  /// re-announcements included, at send time — losses happen later).
  struct VoteEvent {
    SiteId voter;
    SiteId to;
    TxnId txn;
    bool vote;
  };
  /// Observer invoked on every outgoing vote (tests only; adds no cost when
  /// unset). Lets fault tests assert a site never contradicts itself: every
  /// legitimate resend carries the same value for the same (voter, txn).
  void set_vote_observer(std::function<void(const VoteEvent&)> obs) {
    vote_observer_ = std::move(obs);
  }

 protected:
  /// Backend hook behind send(): the simulator carries `m` in a Transport
  /// closure charged its analytic wire size; live mode encodes it.
  virtual void ship(SiteId from, SiteId to, net::Msg m);
  /// Runs the handler of `m` at site `to`: the one receive dispatcher,
  /// called by both backends.
  void receive(SiteId from, SiteId to, const net::Msg& m);
  /// Scheduler seam, client side: a request of `bytes` from the client
  /// co-located with `coord` reaches the coordinator, where `fn` runs...
  virtual void client_request(SiteId coord, std::uint64_t bytes, Task fn);
  /// ...and a reply of `bytes` travels back to that client, where `fn` runs.
  virtual void client_reply(SiteId coord, std::uint64_t bytes, Task fn);

  [[nodiscard]] std::uint64_t term_bytes(const TxnRecord& t) const;
  /// Drives one scheduled membership change: picks a live coordinator and
  /// retries until the change shows up in the latest agreed view (or the
  /// attempt budget runs out — a fault plan can make a change impossible).
  void drive_reconfig(const ReconfigAction& a, int attempt);
  static constexpr int kMaxDriveAttempts = 64;

  /// Sim lane clock for (site, shard): the time that shard's certifier/
  /// applier lane becomes free. Sized sites * shards_ when lanes are on.
  /// Simulator-thread-only (gdur-thread-confinement, lane "sim-thread"):
  /// lane accounting is scheduling state, never read by live threads.
  [[nodiscard]] GDUR_CONFINED("sim-thread") SimTime& lane(SiteId at,
                                                          int shard) {
    return lane_free_[static_cast<std::size_t>(at) *
                          static_cast<std::size_t>(shards_) +
                      static_cast<std::size_t>(shard)];
  }

  /// Declared first, so it outlives everything that caches its slots.
  std::unique_ptr<obs::ObsPlane> own_plane_;
  obs::ObsPlane& plane_;
  ProtocolSpec spec_;
  sim::Simulator sim_;
  store::Partitioner part_;
  int shards_ = 1;
  bool shard_lanes_ = true;
  bool live_certify_model_ = false;
  GDUR_CONFINED("sim-thread") std::vector<SimTime> lane_free_;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<versioning::VersionOracle> oracle_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  std::unique_ptr<comm::AtomicBroadcast> ab_;
  std::unique_ptr<comm::SkeenMulticast> skeen_;
  std::unique_ptr<comm::ReliableMulticast> rm_;
  /// A remote read awaiting its reply at the requesting site.
  struct PendingRead {
    MutTxnPtr t;
    ObjectId obj = 0;
    std::function<void(bool)> cb;
  };
  /// Per-site open remote reads by request id; each table is touched only
  /// on its site's execution context.
  struct ReadTable {
    std::unordered_map<std::uint64_t, PendingRead> open;
    std::uint64_t next = 0;
  };
  std::vector<ReadTable> reads_;
  std::vector<std::unique_ptr<store::WriteAheadLog>> wals_;
  MembershipLog members_;
  bool reconfig_enabled_ = false;
  std::unique_ptr<sim::FaultInjector> fault_;
  obs::TraceRecorder* trace_ = nullptr;
  SimDuration term_timeout_ = 0;
  SimDuration client_timeout_ = 0;
  std::function<void(const InstallEvent&)> install_observer_;
  std::function<void(const VoteEvent&)> vote_observer_;
};

}  // namespace gdur::core

#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "core/shard.h"
#include "net/wire.h"

namespace gdur::core {

namespace {
std::uint64_t mcast_id_of(const TxnId& id) {
  return (static_cast<std::uint64_t>(id.coord) << 44) ^ id.seq;
}

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
}  // namespace

Cluster::Cluster(const ClusterConfig& cfg, ProtocolSpec spec)
    : own_plane_(cfg.plane != nullptr
                     ? nullptr
                     : std::make_unique<obs::ObsPlane>(
                           obs::ObsPlaneConfig{.sites = cfg.sites})),
      plane_(cfg.plane != nullptr ? *cfg.plane : *own_plane_),
      spec_(std::move(spec)),
      part_(cfg.sites, cfg.replication,
            cfg.objects_per_site * static_cast<std::uint64_t>(cfg.sites),
            cfg.partitions_per_site),
      members_(cfg.sites, cfg.reconfig.initial_members),
      reconfig_enabled_(!cfg.reconfig.empty()) {
  assert(spec_.commute && "protocol must define commute()");
  assert(spec_.certify && "protocol must define certify()");

  auto topo = net::Topology::geo(cfg.sites, cfg.min_latency, cfg.max_latency,
                                 cfg.seed * 31 + 7);
  net_ = std::make_unique<net::Transport>(sim_, std::move(topo), plane_,
                                          cfg.cost, cfg.cores_per_site,
                                          cfg.seed * 131 + 11);
  oracle_ = versioning::make_oracle(spec_.theta, part_);

  shards_ = std::clamp(cfg.shards_per_site, 1, kMaxShardsPerSite);
  shard_lanes_ = cfg.shard_lanes;
  live_certify_model_ = cfg.live_certify_model;
  if (shard_lanes_enabled())
    lane_free_.assign(static_cast<std::size_t>(cfg.sites) *
                          static_cast<std::size_t>(shards_),
                      SimTime{0});

  // A sharded replica records into its site slot from several certifier
  // lanes (real threads in live mode), so the single-writer fast mode's
  // plain load/store counters would silently lose increments. Force it off
  // whenever shards are on, whatever the plane was configured with.
  if (shards_ > 1)
    for (std::size_t i = 0; i < plane_.stats().slots(); ++i)
      plane_.stats().slot(i).set_single_writer(false);

  replicas_.reserve(static_cast<std::size_t>(cfg.sites));
  // gdur-lint: allow(membership/hardcoded-sites) bootstrap builds one replica per universe site; membership fences participation
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s)
    replicas_.push_back(std::make_unique<Replica>(*this, s));

  const auto deliver_term = [this](SiteId at, const net::McastMsg& m) {
    replicas_[at]->on_term_delivered(m.txn);
  };
  ab_ = std::make_unique<comm::AtomicBroadcast>(*this, cfg.sites, deliver_term);
  skeen_ = std::make_unique<comm::SkeenMulticast>(
      *this, cfg.sites, deliver_term, spec_.ft_multicast);
  rm_ = std::make_unique<comm::ReliableMulticast>(*this, deliver_term);
  reads_.resize(static_cast<std::size_t>(cfg.sites));

  if (cfg.durable) {
    wals_.reserve(static_cast<std::size_t>(cfg.sites));
    // gdur-lint: allow(membership/hardcoded-sites) bootstrap: every universe site gets a log it will need if it ever joins
    for (int s = 0; s < cfg.sites; ++s)
      wals_.push_back(std::make_unique<store::WriteAheadLog>(sim_, cfg.wal));
  }

  term_timeout_ = cfg.term_timeout;
  client_timeout_ = cfg.client_timeout;
  trace_ = cfg.trace;
  net_->set_trace(trace_);
  if (!cfg.faults.empty()) {
    assert((cfg.faults.crashes.empty() || cfg.durable) &&
           "crash windows need durable=true: recovery replays the WAL");
    fault_ = std::make_unique<sim::FaultInjector>(cfg.faults,
                                                  cfg.seed * 97 + 3);
    net_->set_fault_injector(fault_.get());
    for (const auto& c : cfg.faults.crashes) {
      sim_.at(c.at, [this, c] {
        net_->cpu(c.site).crash_until(c.recover_at);
        if (auto* w = wal(c.site)) w->on_crash();
        replicas_[c.site]->on_crash();
        if (trace_ != nullptr)
          trace_->fault(obs::FaultKind::kCrash, c.site, kNoSite, sim_.now());
        plane_.ring(c.site).append("crash", sim_.now(), c.site);
        plane_.dump_flight("crash");
      });
      sim_.at(c.recover_at, [this, s = c.site] {
        replicas_[s]->on_recover();
        if (trace_ != nullptr)
          trace_->fault(obs::FaultKind::kRecovery, s, kNoSite, sim_.now());
        plane_.ring(s).append("recover", sim_.now(), s);
      });
    }
  }

  for (const auto& a : cfg.reconfig.actions)
    sim_.at(a.at, [this, a] { drive_reconfig(a, 0); });
}

void Cluster::drive_reconfig(const ReconfigAction& a, int attempt) {
  const MembershipView& latest = members_.latest();
  // Moot: the change is already reflected in the latest agreed view.
  if ((a.kind == ReconfigKind::kJoin) == latest.contains(a.site)) return;
  if (attempt >= kMaxDriveAttempts) return;  // the fault plan never allowed it
  // Coordinator: the first live member of the latest view that is not the
  // subject itself.
  SiteId coord = kNoSite;
  for (SiteId s : latest.members) {
    if (s != a.site && !site_down(s)) {
      coord = s;
      break;
    }
  }
  const bool accepted =
      coord != kNoSite && replicas_[coord]->reconfig_begin(a.kind, a.site);
  // Always re-check later: this retries a refused start, and also restarts
  // a proposal that died with its coordinator (recovery abandons it durably
  // when it can no longer be the next epoch).
  sim_.after(kVoteRetry * (accepted ? 32 : 4),
             [this, a, attempt] { drive_reconfig(a, attempt + 1); });
}

void Cluster::send_reconfig(SiteId from, SiteId to, ReconfigMsg m) {
  const std::uint64_t bytes = net::wire::control() + 16 + m.bytes;
  net_->send(
      from, to, bytes,
      [this, to, m = std::move(m)]() mutable {
        replicas_[to]->on_reconfig(std::move(m));
      },
      obs::MsgClass::kControl);
}

std::vector<SiteId> Cluster::participants(const TxnRecord& t) const {
  const auto cs = certifying_objects(spec_, t, part_);
  const MembershipView& v = view(t.epoch);
  return cs.all ? v.members : v.filter(part_.replicas_of(cs.objs));
}

SiteId Cluster::cert_leader(PartitionId p, EpochId e) const {
  const MembershipView& v = view(e);
  // Eligible: *established* members of the partition — tenure predating the
  // view's epoch (every member qualifies in an epoch-0 view), so the leader
  // witnessed all ordered certifications a transaction of `e` can overlap.
  // Tenure is computed from the shared log of agreed views; every site
  // resolves the same candidate list.
  std::vector<SiteId> established;
  std::vector<SiteId> all;
  for (SiteId s : part_.sites_of(p)) {
    if (!v.contains(s)) continue;
    all.push_back(s);
    EpochId since = v.epoch;  // v.epoch, not e: view() clamps future epochs
    while (since > 0 && members_.view(since - 1).contains(s)) --since;
    if (since < v.epoch || v.epoch == 0) established.push_back(s);
  }
  // A view whose partition members are all fresh joiners has no better
  // choice: any agreed member serves (the view itself is the agreement).
  const std::vector<SiteId>& cands = established.empty() ? all : established;
  if (cands.empty()) return kNoSite;
  // Rotate by (epoch, partition): still a pure function of the shared
  // membership log — site-independent within an epoch — but the role moves
  // across the candidate set as epochs advance and across partitions within
  // one epoch, instead of pinning all certification load on the
  // longest-tenured site.
  return cands[(static_cast<std::size_t>(v.epoch) +
                static_cast<std::size_t>(p)) %
               cands.size()];
}

// ---------------------------------------------------------------------------
// Transport/scheduler seam — simulator backend.
// ---------------------------------------------------------------------------

void Cluster::run_after(SiteId /*at*/, SimDuration delay, Task fn) {
  sim_.after(delay, std::move(fn));
}

void Cluster::run_local(SiteId at, SimDuration service, Task fn) {
  net_->local_work(at, service, std::move(fn));
}

void Cluster::run_certify(SiteId at, const TxnPtr& t, SimDuration service,
                          std::function<bool()> compute,
                          std::function<void(bool)> done) {
  if (!shard_lanes_enabled()) {
    // Serial pipeline: one local-work charge, verdict computed inline —
    // byte-identical to the pre-sharding cast_vote schedule.
    auto certify = [compute = std::move(compute), done = std::move(done)] {
      done(compute());
    };
    static_assert(Task::fits_inline<decltype(certify)>);
    run_local(at, service, std::move(certify));
    return;
  }
  // Per-shard lanes: the charge occupies the lanes of every touched shard
  // (ascending shard order — the global shard order), starting when the
  // last of them frees up. Single-shard transactions on distinct shards
  // overlap fully; cross-shard ones serialize exactly on their overlap.
  // Scheduling via sim_.at keeps determinism: equal finish times tie-break
  // by event sequence number, which is itself deterministic.
  //
  // Crash semantics mirror CpuResource::crash_until exactly: a verdict
  // submitted while the site is down vanishes, and one in flight across a
  // crash is dead — firing it would vote from post-recovery (or cleared)
  // state that no longer matches the queue entry it certified.
  auto& cpu = net_->cpu(at);
  if (cpu.down_at(sim_.now())) return;
  const std::uint64_t cpu_epoch = cpu.epoch();
  const ShardSet touched = touched_shards(*t, shards_);
  SimTime start = sim_.now();
  touched.for_each(
      [&](int sh) { start = std::max(start, lane(at, sh)); });
  const SimTime finish = start + service;
  touched.for_each([&](int sh) { lane(at, sh) = finish; });
  sim_.at(finish, [this, at, cpu_epoch, compute = std::move(compute),
                   done = std::move(done)] {
    if (net_->cpu(at).epoch() != cpu_epoch) return;  // crashed since
    done(compute());
  });
}

void Cluster::run_apply(SiteId at, const TxnPtr& t, SimDuration cost) {
  if (!shard_lanes_enabled()) {
    run_local(at, cost, [] {});
    return;
  }
  // The installs already happened synchronously (as in the serial path);
  // the analytic charge occupies the write-set shards' applier lanes so
  // subsequent certifications on those shards queue behind it.
  const ShardSet ws = write_shards(*t, shards_);
  SimTime start = sim_.now();
  ws.for_each([&](int sh) { start = std::max(start, lane(at, sh)); });
  const SimTime finish = start + cost;
  ws.for_each([&](int sh) { lane(at, sh) = finish; });
}

void Cluster::with_apply_exclusion(SiteId /*at*/,
                                   const std::function<void()>& fn) {
  // Sim backend: all of a site's work is one logical thread; nothing to
  // exclude. The live backend overrides this with the sorted shard locks.
  fn();
}

bool Cluster::site_down(SiteId s) const {
  return net_->cpu(s).down_at(sim_.now());
}

void Cluster::remote_read(SiteId from, SiteId target, const MutTxnPtr& t,
                          ObjectId x, std::function<void(bool)> cb) {
  // Line 13 of Algorithm 1: the request carries the snapshot; the reply
  // carries the chosen version, applied to the record here on arrival.
  ReadTable& rt = reads_[from];
  const std::uint64_t req = ++rt.next;
  rt.open.emplace(req, PendingRead{t, x, std::move(cb)});
  send(from, target, net::ReadRequestMsg{t, x, req});
}

// ---------------------------------------------------------------------------
// Message path: send -> ship (the backend) -> receive.
// ---------------------------------------------------------------------------

void Cluster::send(SiteId from, SiteId to, net::Msg m) {
  if (vote_observer_) {
    // A vote leaves its voter: a GC / 2PC vote, or a Paxos 2a proposal.
    if (const auto* v = std::get_if<net::VoteMsg>(&m))
      vote_observer_(
          VoteEvent{.voter = from, .to = to, .txn = v->txn->id, .vote = v->vote});
    else if (const auto* p = std::get_if<net::Paxos2aMsg>(&m))
      vote_observer_(
          VoteEvent{.voter = from, .to = to, .txn = p->txn->id, .vote = p->vote});
  }
  ship(from, to, std::move(m));
}

void Cluster::ship(SiteId from, SiteId to, net::Msg m) {
  const std::uint64_t bytes = net::wire_size(m, meta_bytes());
  const obs::MsgClass cls = net::msg_class(m);
  auto deliver = [this, from, to, m = std::move(m)] { receive(from, to, m); };
  static_assert(Task::fits_inline<decltype(deliver)>);
  net_->send(from, to, bytes, std::move(deliver), cls);
}

void Cluster::receive(SiteId from, SiteId to, const net::Msg& m) {
  Replica& r = *replicas_[to];
  std::visit(
      Overloaded{
          [&](const net::VoteMsg& x) { r.on_vote(x.txn, from, x.vote); },
          [&](const net::DecisionMsg& x) { r.on_decision(x.txn, x.commit); },
          [&](const net::Paxos2aMsg& x) {
            r.commitment().on_paxos_2a(x.txn, from, x.vote);
          },
          [&](const net::Paxos2bMsg& x) {
            r.commitment().on_paxos_2b(x.txn, x.participant, x.vote, from);
          },
          [&](const net::ReadRequestMsg& x) {
            r.serve_remote_read(
                x.txn, x.obj,
                [this, from, to, req = x.req](bool ok,
                                              std::optional<store::Version> v) {
                  std::shared_ptr<const store::Version> version;
                  if (v)
                    version =
                        std::make_shared<const store::Version>(*std::move(v));
                  send(to, from, net::ReadReplyMsg{req, ok, std::move(version)});
                });
          },
          [&](const net::ReadReplyMsg& x) {
            auto& open = reads_[to].open;
            auto it = open.find(x.req);
            if (it == open.end()) return;
            PendingRead pr = std::move(it->second);
            open.erase(it);
            if (x.ok) r.record_read(pr.t, pr.obj, x.version.get());
            pr.cb(x.ok);
          },
          [&](const net::PropagateMsg& x) {
            oracle_->on_propagate(to, *x.stamp);
          },
          // Group-communication traffic goes to the primitive that owns it.
          [&](const auto& x) {
            using M = std::decay_t<decltype(x)>;
            if constexpr (comm::Handles<comm::SkeenMulticast, M>)
              skeen_->on(from, to, x);
            else if constexpr (comm::Handles<comm::AtomicBroadcast, M>)
              ab_->on(from, to, x);
            else
              rm_->on(from, to, x);
          }},
      m);
}

std::uint64_t Cluster::meta_bytes() const {
  return spec_.send_metadata ? oracle_->metadata_bytes() : 0;
}

std::uint64_t Cluster::term_bytes(const TxnRecord& t) const {
  return net::wire::termination(t.rs.size(), t.ws.size(), meta_bytes());
}

// ---------------------------------------------------------------------------
// Client API.
// ---------------------------------------------------------------------------

void Cluster::begin(SiteId coord, std::function<void(MutTxnPtr)> cb) {
  client_request(coord, net::wire::control(), [this, coord,
                                                cb = std::move(cb)] {
    replicas_[coord]->exec_begin([this, coord, cb](MutTxnPtr t) {
      client_reply(coord, net::wire::control(),
                   [cb, t = std::move(t)] { cb(t); });
    });
  });
}

void Cluster::read(SiteId coord, const MutTxnPtr& t, ObjectId x,
                   std::function<void(bool)> cb) {
  client_request(coord, net::wire::control() + net::wire::kKey,
                 [this, coord, t, x, cb = std::move(cb)] {
                   replicas_[coord]->exec_read(t, x, [this, coord,
                                                      cb](bool ok) {
                     client_reply(coord, net::wire::read_reply(0),
                                  [cb, ok] { cb(ok); });
                   });
                 });
}

void Cluster::write(SiteId coord, const MutTxnPtr& t, ObjectId x,
                    std::function<void()> cb) {
  client_request(
      coord, net::wire::control() + net::wire::kKey + net::wire::kPayload,
      [this, coord, t, x, cb = std::move(cb)] {
        replicas_[coord]->exec_write(t, x, [this, coord, cb] {
          client_reply(coord, net::wire::control(), [cb] { cb(); });
        });
      });
}

void Cluster::commit(SiteId coord, const MutTxnPtr& t,
                     std::function<void(bool)> cb) {
  client_request(coord, net::wire::control(),
                 [this, coord, t, cb = std::move(cb)] {
                   replicas_[coord]->exec_commit(t, [this, coord,
                                                     cb](bool committed) {
                     client_reply(coord, net::wire::decision(),
                                  [cb, committed] { cb(committed); });
                   });
                 });
}

void Cluster::client_request(SiteId coord, std::uint64_t bytes, Task fn) {
  net_->client_send(coord, bytes, std::move(fn));
}

void Cluster::client_reply(SiteId coord, std::uint64_t bytes, Task fn) {
  net_->send_to_client(coord, bytes, std::move(fn));
}

// ---------------------------------------------------------------------------
// Termination wiring.
// ---------------------------------------------------------------------------

void Cluster::xcast_term(const TxnPtr& t, std::vector<SiteId> dests) {
  assert(!dests.empty());
  net::McastMsg msg;
  msg.id = mcast_id_of(t->id);
  msg.origin = t->id.coord;
  msg.dests = std::move(dests);
  msg.bytes = term_bytes(*t);
  msg.txn = t;
  if (spec_.ac == AcKind::kGroupComm &&
      spec_.xcast != XcastKind::kAtomicBroadcast) {
    // Genuine multicast addresses replica groups: the primary of each
    // certifying partition proposes on its group's behalf, so the failure
    // of another group member cannot block ordering.
    const auto cs = certifying_objects(spec_, *t, part_);
    std::vector<SiteId> proposers;
    for (ObjectId o : cs.objs) {
      const PartitionId p = part_.partition_of(o);
      SiteId prim = part_.primary_of(p);
      // A retired primary cannot propose for its group: fall back to the
      // first replica of the partition inside the transaction's view.
      const MembershipView& v = view(t->epoch);
      if (!v.contains(prim)) {
        prim = kNoSite;
        for (SiteId s : part_.sites_of(p))
          if (v.contains(s)) {
            prim = s;
            break;
          }
        if (prim == kNoSite) continue;  // partition uncovered in this view
      }
      if (std::ranges::find(proposers, prim) == proposers.end())
        proposers.push_back(prim);
    }
    std::sort(proposers.begin(), proposers.end());
    msg.proposers = std::move(proposers);
  }

  if (spec_.ac == AcKind::kTwoPhaseCommit ||
      spec_.ac == AcKind::kPaxosCommit) {
    rm_->multicast(std::move(msg));
    return;
  }
  switch (spec_.xcast) {
    case XcastKind::kAtomicBroadcast:
      ab_->broadcast(std::move(msg));
      break;
    case XcastKind::kAtomicMulticast:
    case XcastKind::kPairwiseMulticast:
      skeen_->multicast(std::move(msg));
      break;
  }
}

SiteId Cluster::nearest_replica(SiteId from, ObjectId x) const {
  // Only replicas in the reader's active view keep receiving installs;
  // reading elsewhere would expose stale state. `from` itself always
  // qualifies (exec_read fences non-members before getting here).
  const MembershipView& v = members_.view(replicas_[from]->epoch());
  SiteId best = kNoSite;
  SiteId any = kNoSite;  // the placement's nearest, in the view or not
  SimDuration best_lat{};
  SimDuration any_lat{};
  for (SiteId r : part_.replicas_of_object(x)) {
    if (r == from) return r;
    const SimDuration l = net_->topology().latency(from, r);
    if (any == kNoSite || l < any_lat) {
      any = r;
      any_lat = l;
    }
    if (v.contains(r) && (best == kNoSite || l < best_lat)) {
      best = r;
      best_lat = l;
    }
  }
  // Coverage gap: no replica of x is in the view. Read at the placement's
  // nearest — the read fails at the fenced site instead of silently
  // reading stale data.
  return best != kNoSite ? best : any;
}

}  // namespace gdur::core

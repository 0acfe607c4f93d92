#include "comm/skeen_multicast.h"

#include <algorithm>
#include <cassert>

#include "obs/plane.h"

namespace gdur::comm {

namespace {
// How long a destination waits on an unfinalized pending message before
// re-requesting the missing proposals (and between re-requests). Well under
// the coordinator's termination timeout, so a crash-window loss heals before
// the protocol layer starts resolving transactions the slow way.
const SimDuration kRecoveryDelay = milliseconds(250);
// Per-site cap on remembered final timestamps. Recovery requests arrive
// within a few kRecoveryDelay rounds of delivery, so this horizon (minutes
// of traffic) is far wider than any straggler the fault matrix produces.
constexpr std::size_t kRecentFinalCap = 4096;
}  // namespace

SkeenMulticast::SkeenMulticast(Port& port, int sites, DeliverFn deliver,
                               bool fault_tolerant)
    : port_(port),
      deliver_(std::move(deliver)),
      ft_(fault_tolerant),
      states_(static_cast<std::size_t>(sites)) {}

void SkeenMulticast::multicast(net::McastMsg msg) {
  assert(!msg.dests.empty());
  assert(std::is_sorted(msg.dests.begin(), msg.dests.end()));
  const auto m = std::make_shared<const net::McastMsg>(std::move(msg));
  for (SiteId d : m->dests) port_.send(m->origin, d, net::SkeenStep1{m});
}

void SkeenMulticast::on(SiteId /*from*/, SiteId at, const net::SkeenStep1& m) {
  on_step1(at, m.msg);
}

void SkeenMulticast::on(SiteId /*from*/, SiteId at,
                        const net::SkeenProposal& m) {
  on_proposal(at, m.id, TsKey{m.ts, m.site});
}

void SkeenMulticast::on(SiteId /*from*/, SiteId at,
                        const net::SkeenFinalKey& m) {
  on_final_key(at, m.id, TsKey{m.ts, m.site});
}

void SkeenMulticast::on_step1(SiteId at, const net::McastPtr& msg) {
  SiteState& st = states_[at];
  const std::uint64_t id = msg->id;
  // A recovery request can race with a retransmitted step 1 (each may
  // process the message first); the second arrival must not re-propose off
  // a fresh clock — destinations may never observe two different proposals
  // from one site — nor resurrect an already-delivered message.
  if (st.pending.count(id) != 0 || st.recent_final.count(id) != 0) return;
  const std::vector<SiteId>& proposers =
      msg->proposers.empty() ? msg->dests : msg->proposers;
  const bool is_proposer =
      std::find(proposers.begin(), proposers.end(), at) != proposers.end();

  st.clock += 1;
  Pending& p = st.pending[id];
  p.msg = msg;
  p.proposals_needed = static_cast<int>(proposers.size());
  if (is_proposer) p.bound = TsKey{st.clock, at};
  st.order.emplace(order_key(p), id);

  // Apply proposals that raced ahead of the message.
  if (auto it = st.early.find(id); it != st.early.end()) {
    const auto raced = std::move(it->second);
    st.early.erase(it);
    for (const TsKey& k : raced) on_proposal(at, id, k);
  }
  arm_recovery(at, id);

  if (!is_proposer) {
    try_deliver(at);  // the early proposals may already have finalized it
    return;
  }

  const TsKey prop = TsKey{st.clock, at};
  if (auto pit = st.pending.find(id); pit != st.pending.end()) {
    pit->second.my_prop = prop;
    pit->second.proposed = true;
  }
  if (ft_) {
    // Log the proposal at a witness before announcing it (2 extra delays).
    port_.send(at, witness(at), net::SkeenWitness{.id = id});
  } else {
    send_proposal(at, id, prop, msg->dests);
  }
}

void SkeenMulticast::send_proposal(SiteId at, std::uint64_t id, TsKey prop,
                                   const std::vector<SiteId>& dests) {
  port_.plane().slot(at).record(obs::Counter::kOrderingMsgs,
                                static_cast<std::uint64_t>(dests.size()));
  for (SiteId d : dests) {
    if (d == at) {
      on_proposal(at, id, prop);
    } else {
      port_.send(at, d, net::SkeenProposal{id, prop.ts, prop.site});
    }
  }
}

void SkeenMulticast::on_proposal(SiteId at, std::uint64_t id, TsKey prop) {
  SiteState& st = states_[at];
  auto it = st.pending.find(id);
  if (it == st.pending.end()) {
    if (st.recent_final.count(id) != 0) return;  // delivered; straggler
    st.early[id].push_back(prop);
    return;
  }
  Pending& p = it->second;
  if (std::find(p.proposed_from.begin(), p.proposed_from.end(), prop.site) !=
      p.proposed_from.end())
    return;  // a recovery re-send of a proposal already counted
  p.proposed_from.push_back(prop.site);
  const TsKey old = order_key(p);
  p.final_key = std::max(p.final_key, prop);
  p.bound = std::max(p.bound, prop);  // lower bound on the final key
  refile(st, id, old, p);
  if (static_cast<int>(p.proposed_from.size()) == p.proposals_needed)
    finalize(at, p);
}

void SkeenMulticast::finalize(SiteId at, Pending& p) {
  SiteState& st = states_[at];
  st.clock = std::max(st.clock, p.final_key.ts);
  if (ft_) {
    // Log the delivery decision at the witness before it takes effect.
    p.delivered_blocked = true;
    port_.send(at, witness(at),
               net::SkeenWitness{.id = p.msg->id, .delivery = true});
  } else {
    const TsKey old = order_key(p);
    p.finalized = true;
    refile(st, p.msg->id, old, p);
    try_deliver(at);
  }
}

void SkeenMulticast::on(SiteId from, SiteId at, const net::SkeenWitness& m) {
  if (!m.echo) {
    // Witness side: the record is logged; echo it back.
    port_.send(at, from, net::SkeenWitness{m.id, m.delivery, /*echo=*/true});
    return;
  }
  auto it = states_[at].pending.find(m.id);
  if (it == states_[at].pending.end()) return;
  Pending& p = it->second;
  if (m.delivery) {
    const TsKey old = order_key(p);
    p.finalized = true;
    p.delivered_blocked = false;
    refile(states_[at], m.id, old, p);
    try_deliver(at);
    return;
  }
  // The logged proposal may now be announced. Hold the message: the
  // self-proposal can deliver it and drop the pending entry mid-loop.
  const net::McastPtr msg = p.msg;
  send_proposal(at, m.id, p.my_prop, msg->dests);
}

void SkeenMulticast::refile(SiteState& st, std::uint64_t id, TsKey old,
                            const Pending& p) {
  const TsKey now = order_key(p);
  if (now == old) return;
  auto node = st.order.extract({old, id});
  node.value().first = now;
  st.order.insert(std::move(node));
}

void SkeenMulticast::try_deliver(SiteId at) {
  SiteState& st = states_[at];
  // The candidate is the pending message with the smallest order key; it
  // delivers once finalized, and nothing behind it may overtake it.
  while (!st.order.empty()) {
    const std::uint64_t id = st.order.begin()->second;
    auto it = st.pending.find(id);
    const Pending& p = it->second;
    if (!p.finalized || p.delivered_blocked) return;
    const net::McastPtr msg = p.msg;
    remember_final(st, id, p.final_key);
    st.order.erase(st.order.begin());
    st.pending.erase(it);
    deliver_(at, *msg);
  }
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

void SkeenMulticast::arm_recovery(SiteId at, std::uint64_t id) {
  if (!port_.recovery_enabled()) return;  // fault-free: cannot wedge
  port_.run_after(at, kRecoveryDelay, [this, at, id] {
    auto it = states_[at].pending.find(id);
    if (it == states_[at].pending.end()) return;  // delivered meanwhile
    if (port_.site_down(at)) {
      arm_recovery(at, id);  // crashed: look again after recovery
      return;
    }
    Pending& p = it->second;
    if (p.finalized && !p.delivered_blocked)
      return;  // merely queued behind earlier messages, which have their
               // own timers — nothing to re-drive for this one
    if (p.finalized) {
      // FT only: the witness round logging the delivery decision was lost
      // in a crash window. finalize() re-runs it; it is idempotent.
      finalize(at, p);
    } else {
      // A wedge candidate: the ordering layer is re-driving a message whose
      // proposals went missing — exactly what the flight recorder should
      // still hold when the watchdog trips on the stalled queue behind it.
      port_.plane().ring(at).append("skeen_rerequest", port_.now(), at, id);
      // Re-request every proposal still missing, attaching our copy of the
      // message for proposers whose step 1 died with a crash.
      const std::vector<SiteId>& proposers =
          p.msg->proposers.empty() ? p.msg->dests : p.msg->proposers;
      for (SiteId d : proposers) {
        if (std::find(p.proposed_from.begin(), p.proposed_from.end(), d) !=
            p.proposed_from.end())
          continue;
        port_.send(at, d, net::SkeenRetry{p.msg});
      }
    }
    arm_recovery(at, id);
  });
}

void SkeenMulticast::on(SiteId from, SiteId at, const net::SkeenRetry& m) {
  SiteState& st = states_[at];
  const std::uint64_t id = m.msg->id;
  if (auto f = st.recent_final.find(id); f != st.recent_final.end()) {
    // Already delivered here: hand the requester the final timestamp, which
    // lets it finalize directly (the decision is the same at every site).
    port_.send(at, from,
               net::SkeenFinalKey{id, f->second.ts, f->second.site});
    return;
  }
  auto it = st.pending.find(id);
  if (it == st.pending.end()) {
    // Step 1 never reached us (lost in our crash window). Nobody can have
    // finalized without our proposal, so proposing fresh off the current
    // clock is safe — and on_step1 broadcasts it to every destination.
    on_step1(at, m.msg);
    return;
  }
  const Pending& p = it->second;
  if (!p.proposed) return;  // not a proposer; nothing useful to answer
  const TsKey prop = p.my_prop;  // verbatim re-send, never a new value
  if (at == from) {
    on_proposal(at, id, prop);
    return;
  }
  port_.send(at, from, net::SkeenProposal{id, prop.ts, prop.site});
}

void SkeenMulticast::on_final_key(SiteId at, std::uint64_t id, TsKey key) {
  SiteState& st = states_[at];
  auto it = st.pending.find(id);
  if (it == st.pending.end()) return;  // delivered here meanwhile
  Pending& p = it->second;
  if (p.finalized && !p.delivered_blocked) return;
  st.clock = std::max(st.clock, key.ts);
  const TsKey old = order_key(p);
  p.final_key = key;
  p.bound = key;
  p.finalized = true;
  p.delivered_blocked = false;
  refile(st, id, old, p);
  try_deliver(at);
}

void SkeenMulticast::remember_final(SiteState& st, std::uint64_t id,
                                    TsKey key) {
  if (!port_.recovery_enabled()) return;  // recovery disabled
  if (st.recent_final.emplace(id, key).second) {
    st.recent_fifo.push_back(id);
    if (st.recent_fifo.size() > kRecentFinalCap) {
      st.recent_final.erase(st.recent_fifo.front());
      st.recent_fifo.pop_front();
    }
  }
}

}  // namespace gdur::comm

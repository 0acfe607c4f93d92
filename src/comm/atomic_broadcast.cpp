#include "comm/atomic_broadcast.h"

namespace gdur::comm {

AtomicBroadcast::AtomicBroadcast(Port& port, int sites, DeliverFn deliver,
                                 SiteId sequencer)
    : port_(port),
      deliver_(std::move(deliver)),
      sequencer_(sequencer),
      majority_(sites / 2 + 1),
      states_(static_cast<std::size_t>(sites)) {}

void AtomicBroadcast::broadcast(net::McastMsg msg) {
  // Step 1: ship the message to the sequencer.
  const SiteId origin = msg.origin;
  port_.send(origin, sequencer_,
             net::AbSubmit{std::make_shared<const net::McastMsg>(std::move(msg))});
}

void AtomicBroadcast::on(SiteId /*from*/, SiteId /*at*/,
                         const net::AbSubmit& m) {
  // Step 2: the sequencer assigns the order and forwards to everyone.
  const std::uint64_t seq = next_seq_++;
  // gdur-lint: allow(membership/hardcoded-sites) ordering-layer fan-out; non-members are fenced by member_of at delivery
  for (SiteId d = 0; d < static_cast<SiteId>(sites()); ++d)
    port_.send(sequencer_, d, net::AbSequenced{m.msg, seq});
}

void AtomicBroadcast::on(SiteId /*from*/, SiteId at,
                         const net::AbSequenced& m) {
  Slot& slot = states_[at].slots[m.seq];
  slot.msg = m.msg;
  slot.sequenced = true;
  // Step 3: acknowledge to everyone (uniformity).
  // gdur-lint: allow(membership/hardcoded-sites) ordering-layer fan-out; non-members are fenced by member_of at delivery
  for (SiteId d = 0; d < static_cast<SiteId>(sites()); ++d)
    port_.send(at, d, net::AbAck{m.seq});
  try_deliver(at);
}

void AtomicBroadcast::on(SiteId /*from*/, SiteId at, const net::AbAck& m) {
  ++states_[at].slots[m.seq].acks;
  try_deliver(at);
}

void AtomicBroadcast::try_deliver(SiteId at) {
  SiteState& st = states_[at];
  for (;;) {
    auto it = st.slots.find(st.next);
    if (it == st.slots.end() || !it->second.sequenced ||
        it->second.acks < majority_) {
      return;
    }
    const net::McastPtr msg = std::move(it->second.msg);
    st.slots.erase(it);
    ++st.next;
    deliver_(at, *msg);
  }
}

}  // namespace gdur::comm

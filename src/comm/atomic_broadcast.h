// Uniform atomic broadcast (AB-Cast), fixed-sequencer variant.
//
// Every site delivers every message, all in the same total order. The
// protocol is the classic 3-message-delay uniform broadcast:
//
//   1. origin -> sequencer         (the message)
//   2. sequencer -> all            (sequence number assignment)
//   3. all -> all                  (acknowledgments)
//
// A site delivers message k once it holds acknowledgments from a majority
// of sites and has delivered all messages < k. Three delays matches the
// lower bound for uniform consensus-based delivery cited in §5.3 of the
// paper; the O(n^2) acknowledgment traffic is what makes non-genuine
// protocols (Serrano) saturate early, also as in the paper.
//
// Serrano's protocol is the only client of full broadcast; P-Store/S-DUR use
// the multicast primitives instead.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "comm/port.h"

namespace gdur::comm {

class AtomicBroadcast {
 public:
  AtomicBroadcast(Port& port, int sites, DeliverFn deliver,
                  SiteId sequencer = 0);

  /// Broadcasts `msg` to every site in the system (msg.dests is ignored).
  void broadcast(net::McastMsg msg);

  void on(SiteId from, SiteId at, const net::AbSubmit& m);
  void on(SiteId from, SiteId at, const net::AbSequenced& m);
  void on(SiteId from, SiteId at, const net::AbAck& m);

 private:
  struct Slot {
    net::McastPtr msg;
    bool sequenced = false;
    int acks = 0;
  };
  struct SiteState {
    std::map<std::uint64_t, Slot> slots;  // seq -> slot
    std::uint64_t next = 0;               // next seq to deliver
  };

  [[nodiscard]] int sites() const { return static_cast<int>(states_.size()); }
  void try_deliver(SiteId at);

  Port& port_;
  DeliverFn deliver_;
  SiteId sequencer_;
  int majority_;
  std::uint64_t next_seq_ = 0;  // sequencer state
  std::vector<SiteState> states_;
};

}  // namespace gdur::comm

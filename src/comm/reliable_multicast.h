// Reliable multicast (M-Cast in the paper's pseudo-code).
//
// No ordering guarantee beyond the port's per-link FIFO. Disseminates the
// termination message of two-phase commit and Paxos Commit.
#pragma once

#include "comm/port.h"

namespace gdur::comm {

class ReliableMulticast {
 public:
  ReliableMulticast(Port& port, DeliverFn deliver)
      : port_(port), deliver_(std::move(deliver)) {}

  /// Sends `msg` to every destination in msg.dests.
  void multicast(net::McastMsg msg);

  void on(SiteId /*from*/, SiteId at, const net::RmDeliver& m) {
    deliver_(at, *m.msg);
  }

 private:
  Port& port_;
  DeliverFn deliver_;
};

}  // namespace gdur::comm

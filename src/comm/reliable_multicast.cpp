#include "comm/reliable_multicast.h"

namespace gdur::comm {

void ReliableMulticast::multicast(net::McastMsg msg) {
  const auto m = std::make_shared<const net::McastMsg>(std::move(msg));
  for (SiteId d : m->dests) port_.send(m->origin, d, net::RmDeliver{m});
}

}  // namespace gdur::comm

#include "protocols/common.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/cluster.h"

namespace gdur::protocols {

void propagate_to_rest(core::Cluster& cl, const core::TxnRecord& t) {
  const auto cs = core::certifying_objects(cl.spec(), t, cl.partitioner());
  const auto involved = cl.partitioner().replicas_of(cs.objs);
  // Background propagation targets members only: a retiree is fenced and a
  // joiner catches up through the state-transfer stream instead.
  std::vector<SiteId> rest;
  for (SiteId s : cl.view(t.epoch).members)
    if (std::find(involved.begin(), involved.end(), s) == involved.end())
      rest.push_back(s);
  if (rest.empty()) return;
  const auto stamp = std::make_shared<const versioning::Stamp>(t.stamp);
  for (SiteId d : rest) cl.send(t.id.coord, d, net::PropagateMsg{stamp});
}

}  // namespace gdur::protocols

#include "core/membership.h"

#include <cassert>

namespace gdur::core {

MembershipView MembershipView::with_joined(SiteId s) const {
  MembershipView v = *this;
  ++v.epoch;
  if (!v.contains(s)) {
    v.members.insert(
        std::lower_bound(v.members.begin(), v.members.end(), s), s);
  }
  return v;
}

MembershipView MembershipView::with_retired(SiteId s) const {
  MembershipView v = *this;
  ++v.epoch;
  std::erase(v.members, s);
  return v;
}

MembershipLog::MembershipLog(int sites, std::vector<SiteId> initial_members) {
  MembershipView v0;
  if (initial_members.empty()) {
    v0.members.reserve(static_cast<std::size_t>(sites));
    for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s)
      v0.members.push_back(s);
  } else {
    v0.members = std::move(initial_members);
    std::sort(v0.members.begin(), v0.members.end());
    v0.members.erase(std::unique(v0.members.begin(), v0.members.end()),
                     v0.members.end());
    assert(!v0.members.empty() && "initial membership cannot be empty");
  }
  views_.push_back(std::move(v0));
}

void MembershipLog::append(const MembershipView& v) {
  if (has(v.epoch)) {
    // Re-announced commit of an already-agreed view: must be identical.
    assert(views_[v.epoch].members == v.members &&
           "conflicting views agreed for one epoch");
    return;
  }
  assert(v.epoch == views_.size() && "membership epochs advance one at a time");
  views_.push_back(v);
}

}  // namespace gdur::core

// lint-as: src/core/hardcoded_sites.cpp
//
// Lint fixture (never compiled): counter loops over the whole site universe
// bypass the MembershipView — they include retired sites and miss joiners.
// One bootstrap loop is legitimately allowed with a reason.

namespace gdur::corpus {

void broadcast_votes(Cluster& cl, const TxnRecord& t) {
  for (SiteId s = 0; s < static_cast<SiteId>(cl.sites()); ++s)  // expect: membership/hardcoded-sites
    cl.send(0, s, net::VoteMsg{t, true});
}

void count_quorum(int n_sites, const std::vector<bool>& acks) {
  int yes = 0;
  for (int s = 0; s < n_sites; ++s)  // expect: membership/hardcoded-sites
    yes += acks[static_cast<std::size_t>(s)] ? 1 : 0;
  (void)yes;
}

void fan_out(Transport& net, std::uint64_t bytes) {
  for (auto d = 0; d < net.sites(); ++d)  // expect: membership/hardcoded-sites
    net.send(0, d, bytes, [] {});
}

void bootstrap(const ClusterConfig& cfg, std::vector<ReplicaPtr>& replicas) {
  // gdur-lint: allow(membership/hardcoded-sites) bootstrap constructs one replica per universe site; membership fences participation
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s)
    replicas.push_back(make_replica(s));
}

void view_driven(Cluster& cl, const TxnRecord& t) {
  // The right shape: iterate the agreed view of the transaction's epoch.
  for (SiteId s : cl.view(t.epoch).members) cl.send(0, s, net::VoteMsg{t, true});
}

}  // namespace gdur::corpus

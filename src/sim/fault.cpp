#include "sim/fault.h"

#include <algorithm>

namespace gdur::sim {

FaultPlan& FaultPlan::drop(SiteId src, SiteId dst, double p, SimTime from,
                           SimTime until) {
  links.push_back(LinkFault{src, dst, p, 0.0, from, until});
  return *this;
}

FaultPlan& FaultPlan::drop_all(double p, SimTime from, SimTime until) {
  return drop(kNoSite, kNoSite, p, from, until);
}

FaultPlan& FaultPlan::duplicate_all(double p, SimTime from, SimTime until) {
  links.push_back(LinkFault{kNoSite, kNoSite, 0.0, p, from, until});
  return *this;
}

FaultPlan& FaultPlan::blackout(SiteId src, SiteId dst, SimTime from,
                               SimTime until) {
  return drop(src, dst, 1.0, from, until);
}

FaultPlan& FaultPlan::partition(std::vector<std::vector<SiteId>> groups,
                                SimTime from, SimTime until) {
  partitions.push_back(Partition{std::move(groups), from, until});
  return *this;
}

FaultPlan& FaultPlan::crash(SiteId site, SimTime at, SimTime recover_at) {
  crashes.push_back(Crash{site, at, recover_at});
  return *this;
}

FaultPlan& FaultPlan::double_vote(SiteId site, SimTime from, SimTime until,
                                  int count) {
  sabotage.push_back(
      Sabotage{Sabotage::Kind::kDoubleVote, site, from, until, count});
  return *this;
}

FaultPlan& FaultPlan::epoch_regress(SiteId site, SimTime from, SimTime until,
                                    int count) {
  sabotage.push_back(
      Sabotage{Sabotage::Kind::kEpochRegress, site, from, until, count});
  return *this;
}

FaultPlan FaultPlan::chaos(int sites, SimTime horizon, std::uint64_t seed,
                           const ChaosOptions& opt) {
  FaultPlan plan;
  Rng rng(mix64(seed ^ 0xc4a05));
  const auto n = static_cast<SiteId>(sites);

  for (SiteId s = 0; s < n; ++s) {
    for (SiteId d = 0; d < n; ++d) {
      if (s == d || !rng.next_bool(opt.lossy_link_fraction)) continue;
      plan.links.push_back(LinkFault{
          s, d, rng.next_double() * opt.max_drop_prob,
          rng.next_double() * opt.max_dup_prob, 0, kNever});
    }
  }

  for (int i = 0; i < opt.partitions && sites >= 2; ++i) {
    // Cut a random nonempty proper subset away from the rest.
    std::vector<SiteId> a, b;
    do {
      a.clear();
      b.clear();
      for (SiteId s = 0; s < n; ++s) (rng.next_bool(0.5) ? a : b).push_back(s);
    } while (a.empty() || b.empty());
    const auto from = static_cast<SimTime>(rng.next_below(
        static_cast<std::uint64_t>(std::max<SimTime>(1, horizon))));
    const auto len = static_cast<SimDuration>(
        rng.next_below(static_cast<std::uint64_t>(opt.max_partition)) + 1);
    plan.partition({std::move(a), std::move(b)}, from, from + len);
  }

  for (int i = 0; i < opt.crashes && sites > 0; ++i) {
    const auto site =
        static_cast<SiteId>(rng.next_below(static_cast<std::uint64_t>(sites)));
    const auto at = static_cast<SimTime>(rng.next_below(
        static_cast<std::uint64_t>(std::max<SimTime>(1, horizon))));
    const auto len = static_cast<SimDuration>(
        rng.next_below(static_cast<std::uint64_t>(opt.max_outage)) + 1);
    plan.crash(site, at, at + len);
  }

  // The chaos contract: every window is survivable. Push give_up past the
  // longest blackout so no message is lost forever at the transport.
  const SimDuration longest =
      std::max(opt.max_partition, opt.max_outage) + plan.retransmit.max_rto;
  plan.retransmit.give_up = std::max(plan.retransmit.give_up, 4 * longest);
  return plan;
}

// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(mix64(seed ^ 0xfa017)) {
  sabotage_left_.reserve(plan_.sabotage.size());
  for (const auto& s : plan_.sabotage) sabotage_left_.push_back(s.count);
}

bool FaultInjector::consume_sabotage(Sabotage::Kind kind, SiteId site,
                                     SimTime t) {
  for (std::size_t i = 0; i < plan_.sabotage.size(); ++i) {
    const auto& s = plan_.sabotage[i];
    if (s.kind != kind || s.site != site) continue;
    if (t < s.from || t >= s.until || sabotage_left_[i] <= 0) continue;
    --sabotage_left_[i];
    return true;
  }
  return false;
}

bool FaultInjector::link_cut(SiteId src, SiteId dst, SimTime t) const {
  for (const auto& p : plan_.partitions) {
    if (t < p.from || t >= p.until) continue;
    int gs = -1, gd = -1;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      for (SiteId s : p.groups[g]) {
        if (s == src) gs = static_cast<int>(g);
        if (s == dst) gd = static_cast<int>(g);
      }
    }
    if (gs >= 0 && gd >= 0 && gs != gd) return true;
  }
  return drop_prob(src, dst, t) >= 1.0;  // blackout = certain loss
}

bool FaultInjector::crashed(SiteId s, SimTime t) const {
  for (const auto& c : plan_.crashes)
    if (c.site == s && t >= c.at && t < c.recover_at) return true;
  return false;
}

SimTime FaultInjector::recovery_end(SiteId s, SimTime t) const {
  SimTime end = t;
  for (const auto& c : plan_.crashes)
    if (c.site == s && t >= c.at && t < c.recover_at)
      end = std::max(end, c.recover_at);
  return end;
}

double FaultInjector::drop_prob(SiteId src, SiteId dst, SimTime t) const {
  double p = 0.0;
  for (const auto& f : plan_.links) {
    if (f.src != kNoSite && f.src != src) continue;
    if (f.dst != kNoSite && f.dst != dst) continue;
    if (t < f.from || t >= f.until) continue;
    p = std::max(p, f.drop_prob);
  }
  return p;
}

bool FaultInjector::attempt(SiteId src, SiteId dst, SimTime sent,
                            SimTime arrival) {
  if (link_cut(src, dst, sent) || crashed(src, sent) ||
      crashed(dst, arrival))
    return false;
  const double p = drop_prob(src, dst, sent);
  return !(p > 0.0 && rng_.next_bool(p));
}

bool FaultInjector::duplicate(SiteId src, SiteId dst, SimTime t) {
  double p = 0.0;
  for (const auto& f : plan_.links) {
    if (f.src != kNoSite && f.src != src) continue;
    if (f.dst != kNoSite && f.dst != dst) continue;
    if (t < f.from || t >= f.until) continue;
    p = std::max(p, f.dup_prob);
  }
  return p > 0.0 && rng_.next_bool(p);
}

}  // namespace gdur::sim

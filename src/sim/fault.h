// Deterministic fault injection.
//
// A FaultPlan is a declarative schedule of the failures a run must survive:
// per-link message loss and duplication probabilities, link blackouts that
// compose into network partitions (with heal times), and site crashes in the
// crash-recovery-with-state-loss model (volatile state is discarded; only
// what reached the write-ahead log survives). The seeded chaos() constructor
// samples a plan from common/rng, so an arbitrarily hostile schedule is
// still a pure function of its seed.
//
// A FaultInjector interprets one plan for the transport layer. It answers
// two questions per delivery attempt — "is the link usable at this instant?"
// and "does this attempt get dropped?" — and knows the crash windows so that
// the transport's ack/retransmit layer can schedule around them. All
// randomness flows through one Rng owned by the injector; because the
// simulator is deterministic, the sample sequence (and hence the whole
// faulty run) is reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace gdur::sim {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Probabilistic loss/duplication on one link (or all links when src/dst is
/// kNoSite), active over [from, until).
struct LinkFault {
  SiteId src = kNoSite;  // kNoSite matches every source
  SiteId dst = kNoSite;  // kNoSite matches every destination
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  SimTime from = 0;
  SimTime until = kNever;
};

/// A network partition over [from, until): sites listed in different groups
/// cannot exchange messages; sites in the same group (or in no group) are
/// unaffected. `until` is the heal time.
struct Partition {
  std::vector<std::vector<SiteId>> groups;
  SimTime from = 0;
  SimTime until = kNever;
};

/// A site crash with state loss at `at`, restart at `recover_at`: queued CPU
/// jobs, in-flight message handlers and all volatile protocol state vanish;
/// recovery replays the site's write-ahead log (core::Replica::on_recover).
struct Crash {
  SiteId site = kNoSite;
  SimTime at = 0;
  SimTime recover_at = kNever;
};

/// Ack/retransmit policy of the transport over faulty links: a sender
/// retransmits an unacknowledged message after `initial_rto`, doubling up to
/// `max_rto`, and abandons it (the connection is declared broken) once
/// `give_up` has elapsed since the first attempt. Set `give_up` beyond the
/// longest blackout in the plan to make the transport eventually reliable.
struct RetransmitConfig {
  SimDuration initial_rto = milliseconds(10);
  double backoff = 2.0;
  SimDuration max_rto = milliseconds(320);
  SimDuration give_up = seconds(10);
  /// Fractional randomization (±jitter) of each backoff delay. Decorrelates
  /// retry instants across senders so a healing partition is not hit by a
  /// synchronized retry storm. Samples come from the transport's dedicated
  /// retransmit Rng (seeded from its jitter seed), so the schedule stays a
  /// pure function of the seeds.
  double jitter = 0.1;
};

/// Knobs for FaultPlan::chaos().
struct ChaosOptions {
  double lossy_link_fraction = 0.5;  // fraction of directed links made lossy
  double max_drop_prob = 0.15;
  double max_dup_prob = 0.05;
  int partitions = 2;                // partition episodes over the horizon
  SimDuration max_partition = milliseconds(400);
  int crashes = 2;                   // crash episodes over the horizon
  SimDuration max_outage = milliseconds(300);
};

/// Deliberate protocol misbehavior — mutation testing for the *online
/// invariant monitor* (obs/invariants). The engine consults the active
/// sabotage at the corresponding realization point and misbehaves once per
/// budgeted occurrence: kDoubleVote flips the vote value a site actually
/// sends (equivocation — the announced vote and the wire vote differ);
/// kEpochRegress makes a site report a configuration epoch one lower than
/// the one it activated. Both must be caught by the monitor; neither is
/// ever enabled outside tests.
struct Sabotage {
  enum class Kind { kDoubleVote, kEpochRegress };
  Kind kind = Kind::kDoubleVote;
  SiteId site = kNoSite;
  SimTime from = 0;
  SimTime until = kNever;
  int count = 1;  // occurrences before the entry is spent
};

struct FaultPlan {
  std::vector<LinkFault> links;
  std::vector<Partition> partitions;
  std::vector<Crash> crashes;
  std::vector<Sabotage> sabotage;
  RetransmitConfig retransmit;

  [[nodiscard]] bool empty() const {
    return links.empty() && partitions.empty() && crashes.empty() &&
           sabotage.empty();
  }

  // Builder helpers (all return *this for chaining).
  FaultPlan& drop(SiteId src, SiteId dst, double p, SimTime from = 0,
                  SimTime until = kNever);
  /// Loss probability `p` on every link.
  FaultPlan& drop_all(double p, SimTime from = 0, SimTime until = kNever);
  FaultPlan& duplicate_all(double p, SimTime from = 0, SimTime until = kNever);
  /// Total blackout of one directed link over [from, until).
  FaultPlan& blackout(SiteId src, SiteId dst, SimTime from, SimTime until);
  FaultPlan& partition(std::vector<std::vector<SiteId>> groups, SimTime from,
                       SimTime until);
  FaultPlan& crash(SiteId site, SimTime at, SimTime recover_at);
  /// Seeds `count` vote equivocations at `site` over [from, until).
  FaultPlan& double_vote(SiteId site, SimTime from, SimTime until = kNever,
                         int count = 1);
  /// Seeds `count` epoch-regression reports at `site` over [from, until).
  FaultPlan& epoch_regress(SiteId site, SimTime from, SimTime until = kNever,
                           int count = 1);

  /// Samples a hostile-but-survivable schedule over [0, horizon) for `sites`
  /// sites: lossy links, short partitions and crash windows, all bounded so
  /// that the default retransmit policy rides them out.
  static FaultPlan chaos(int sites, SimTime horizon, std::uint64_t seed,
                         const ChaosOptions& opt = {});
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0x5eed);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const RetransmitConfig& retransmit() const {
    return plan_.retransmit;
  }

  /// Is the link unusable (cut by a partition or blackout) at `t`?
  [[nodiscard]] bool link_cut(SiteId src, SiteId dst, SimTime t) const;

  /// Is `s` inside a crash window at `t`?
  [[nodiscard]] bool crashed(SiteId s, SimTime t) const;

  /// End of the crash window covering (s, t), or `t` if none.
  [[nodiscard]] SimTime recovery_end(SiteId s, SimTime t) const;

  /// One delivery attempt departing `src` at `sent`, arriving at `dst` at
  /// `arrival`. Consumes randomness for the loss trial; returns true if the
  /// attempt gets through.
  bool attempt(SiteId src, SiteId dst, SimTime sent, SimTime arrival);

  /// Should the (successful) delivery also spawn a duplicate? (The receiver
  /// deduplicates — see net::Transport — so this only wastes resources.)
  bool duplicate(SiteId src, SiteId dst, SimTime t);

  /// True — and one occurrence consumed — when a sabotage entry of `kind`
  /// at `site` covers `t` and still has budget. The engine misbehaves at
  /// the matching realization point iff this returns true.
  bool consume_sabotage(Sabotage::Kind kind, SiteId site, SimTime t);

 private:
  [[nodiscard]] double drop_prob(SiteId src, SiteId dst, SimTime t) const;

  FaultPlan plan_;
  Rng rng_;
  std::vector<int> sabotage_left_;  // remaining budget per plan_.sabotage
};

}  // namespace gdur::sim

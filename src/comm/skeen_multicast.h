// Genuine atomic multicast (AM-Cast / AMpw-Cast), Skeen's algorithm.
//
// Only the destinations of a message take steps — the primitive is genuine,
// which is exactly the property P-Store's commitment needs (§6.1). Each
// destination proposes a Lamport timestamp, the final timestamp is the
// maximum proposal, and a site delivers a finalized message once no other
// pending message can end up with a smaller timestamp. Messages with
// intersecting destination sets are delivered in the same relative order at
// every common destination (pairwise ordering); because proposals are
// exchanged among *all* destinations, the order is in fact total per
// destination set — a strict superset of the AMpw-Cast contract S-DUR needs.
//
// Cost (r = |dests|): 2 message delays and r + r^2 messages without fault
// tolerance. With `fault_tolerant = true`, every proposal and every delivery
// decision is first logged at a witness site through a round trip, modeling
// the intra-group consensus of a disaster-tolerant genuine multicast: 6
// delays and Ω(r^2) messages, the figures the paper quotes from Schiper's
// thesis in §5.3.
//
// Crash recovery: the transport can lose an already-acknowledged message
// when its delivery lands in a receiver's crash window ("protocol retries
// must recover it" — see Transport::send). A lost proposal would wedge the
// ordering layer permanently: delivery at a site blocks behind its
// smallest-keyed pending message, so one unfinalizable entry stalls every
// message after it. When the port can lose messages, each destination
// therefore arms a retry timer per pending message; if the message has not
// finalized when it fires, the site re-requests the missing proposals from
// their proposers. A proposer answers with its original proposal (re-sent
// verbatim so destinations can never observe two different proposals from
// one site), or with the final timestamp if it has already delivered the
// message, or — if it lost the step-1 message itself to a crash — by
// processing the copy carried in the request and proposing fresh, which is
// safe precisely because nobody can have finalized without it.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/port.h"

namespace gdur::comm {

class SkeenMulticast {
 public:
  SkeenMulticast(Port& port, int sites, DeliverFn deliver,
                 bool fault_tolerant = false);

  /// Multicasts `msg` to msg.dests (sorted, unique, non-empty).
  void multicast(net::McastMsg msg);

  void on(SiteId from, SiteId at, const net::SkeenStep1& m);
  void on(SiteId from, SiteId at, const net::SkeenProposal& m);
  /// A destination (`from`) re-requests this site's proposal.
  void on(SiteId from, SiteId at, const net::SkeenRetry& m);
  void on(SiteId from, SiteId at, const net::SkeenFinalKey& m);
  void on(SiteId from, SiteId at, const net::SkeenWitness& m);

 private:
  /// (timestamp, site) pairs; proposals from one site are strictly
  /// increasing, so keys of finalized messages are unique.
  struct TsKey {
    std::uint64_t ts;
    SiteId site;
    friend auto operator<=>(const TsKey&, const TsKey&) = default;
  };

  struct Pending {
    net::McastPtr msg;
    TsKey bound{};              // lower bound on the final key: this site's
                                // own proposal, or the best proposal heard
    TsKey final_key{};          // max proposal once finalized
    TsKey my_prop{};            // this site's own proposal, if a proposer —
                                // kept so retries re-send the same value
    bool proposed = false;      // my_prop is valid
    bool finalized = false;
    bool delivered_blocked = false;  // FT: waiting for delivery log
    // Distinct proposers heard from; recovery re-sends arrive as ordinary
    // messages (only transport-level duplicates are filtered below us), so
    // finalization must count sites, not messages.
    std::vector<SiteId> proposed_from;
    int proposals_needed = 0;
  };

  /// Where a pending message sorts for delivery: its final key once
  /// finalized, else its bound (a lower bound on that final key).
  static TsKey order_key(const Pending& p) {
    return p.finalized ? p.final_key : p.bound;
  }

  struct SiteState {
    std::uint64_t clock = 0;
    std::unordered_map<std::uint64_t, Pending> pending;  // msg id -> state
    // (order_key, id) of every pending message: the delivery candidate is
    // the first entry. Keys of distinct messages differ (see TsKey) except
    // the {0, 0} bound of messages no proposal has reached yet, which are
    // unfinalized and so never delivered ahead of anything.
    std::set<std::pair<TsKey, std::uint64_t>> order;
    // Proposals that arrived before the message itself (links from distinct
    // sources are not mutually ordered).
    std::unordered_map<std::uint64_t, std::vector<TsKey>> early;
    // Final timestamps of recently delivered messages, so a straggling
    // destination (or a recovered crasher) can still learn the outcome
    // after this site has dropped its pending state.
    std::unordered_map<std::uint64_t, TsKey> recent_final;
    std::deque<std::uint64_t> recent_fifo;
  };

  void on_step1(SiteId at, const net::McastPtr& msg);
  void send_proposal(SiteId at, std::uint64_t id, TsKey prop,
                     const std::vector<SiteId>& dests);
  void on_proposal(SiteId at, std::uint64_t id, TsKey prop);
  void finalize(SiteId at, Pending& p);
  /// Moves `id` to its new place in st.order after its order key changed
  /// from `old`.
  static void refile(SiteState& st, std::uint64_t id, TsKey old,
                     const Pending& p);
  void try_deliver(SiteId at);

  // --- crash recovery (active only when the port can lose messages) ---
  /// Re-checks `id` at `at` after a delay; re-requests missing proposals.
  void arm_recovery(SiteId at, std::uint64_t id);
  /// A proposer that already delivered `id` tells `at` its final timestamp.
  void on_final_key(SiteId at, std::uint64_t id, TsKey key);
  void remember_final(SiteState& st, std::uint64_t id, TsKey key);

  /// The witness used for FT logging: the next site, cyclically.
  [[nodiscard]] SiteId witness(SiteId s) const {
    return static_cast<SiteId>((s + 1) % static_cast<SiteId>(states_.size()));
  }

  Port& port_;
  DeliverFn deliver_;
  bool ft_;
  std::vector<SiteState> states_;
};

}  // namespace gdur::comm

// Membership and online reconfiguration.
//
// G-DUR's evaluation assumes a fixed replica set; elasticity requires
// adding and retiring sites while transactions keep committing. The model
// here: the *site universe* (the Partitioner's placement function) is
// static, and a MembershipView — an epoch-numbered sorted subset of that
// universe — says which sites currently participate. Sites outside the
// view behave like permanently crashed sites: they receive no termination
// traffic, their votes are rejected, and quorum computations skip them.
// Placement never changes, so a join/retire moves no partition boundaries;
// with replication >= 2 every partition keeps a live replica across a
// single-site change, which is the coverage invariant the reconfiguration
// protocol relies on (see DESIGN.md §12).
//
// Views advance through an epoch-at-a-time prepare/activate protocol driven
// by one coordinating replica and logged to the write-ahead log as ordinary
// replicated commands, so a crashed coordinator resumes (prepare on the
// log, no commit yet) or re-announces (commit on the log) instead of
// leaving the cluster wedged between epochs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace gdur::core {

/// One configuration: the sorted set of participating sites at an epoch.
struct MembershipView {
  EpochId epoch = 0;
  std::vector<SiteId> members;  // sorted ascending, no duplicates

  [[nodiscard]] bool contains(SiteId s) const {
    return std::binary_search(members.begin(), members.end(), s);
  }
  [[nodiscard]] int size() const { return static_cast<int>(members.size()); }
  /// Majority quorum size of this view.
  [[nodiscard]] int majority() const { return size() / 2 + 1; }

  /// `sites` with non-members removed (preserves order).
  [[nodiscard]] std::vector<SiteId> filter(std::vector<SiteId> sites) const {
    std::erase_if(sites, [this](SiteId s) { return !contains(s); });
    return sites;
  }

  /// View with `s` added (sorted) and the epoch advanced by one.
  [[nodiscard]] MembershipView with_joined(SiteId s) const;
  /// View with `s` removed and the epoch advanced by one.
  [[nodiscard]] MembershipView with_retired(SiteId s) const;
};

/// Append-only log of *agreed* views, indexed by epoch. One instance is
/// shared by all replicas of a deployment: a view is appended exactly when
/// the reconfiguration coordinator logs its commit record, i.e. at the
/// protocol's decision point, so looking a view up by a transaction's epoch
/// is sound — the transaction can only carry an epoch whose view was agreed
/// before the transaction was submitted. (Per-replica *activation* of an
/// epoch remains genuinely distributed state, tracked by core::Replica.)
class MembershipLog {
 public:
  MembershipLog(int sites, std::vector<SiteId> initial_members);

  [[nodiscard]] const MembershipView& view(EpochId e) const {
    // Clamp: an epoch from a corrupted or future-dated message maps to the
    // latest agreed view instead of reading past the end.
    const auto i = std::min<std::size_t>(e, views_.size() - 1);
    return views_[i];
  }
  [[nodiscard]] const MembershipView& latest() const { return views_.back(); }
  [[nodiscard]] EpochId latest_epoch() const { return latest().epoch; }
  [[nodiscard]] bool has(EpochId e) const { return e < views_.size(); }

  /// Records an agreed view. Idempotent for re-announced commits; the epoch
  /// must extend the log by exactly one when new.
  void append(const MembershipView& v);

 private:
  std::vector<MembershipView> views_;  // views_[e].epoch == e
};

/// A membership change to drive during a run.
enum class ReconfigKind : std::uint8_t { kJoin, kRetire };

struct ReconfigAction {
  ReconfigKind kind = ReconfigKind::kJoin;
  SiteId site = kNoSite;
  SimTime at = 0;  // when the cluster starts driving the change
};

/// Declarative elasticity schedule, the membership counterpart of a
/// sim::FaultPlan. `initial_members` empty means every site of the universe
/// starts as a member. An empty plan is the fixed membership of the paper's
/// experiments: that epoch-0 view is then the only one.
struct ReconfigPlan {
  std::vector<SiteId> initial_members;
  std::vector<ReconfigAction> actions;

  [[nodiscard]] bool empty() const {
    return initial_members.empty() && actions.empty();
  }

  ReconfigPlan& start_with(std::vector<SiteId> members) {
    initial_members = std::move(members);
    return *this;
  }
  ReconfigPlan& join(SiteId site, SimTime at) {
    actions.push_back({ReconfigKind::kJoin, site, at});
    return *this;
  }
  ReconfigPlan& retire(SiteId site, SimTime at) {
    actions.push_back({ReconfigKind::kRetire, site, at});
    return *this;
  }
};

/// Reconfiguration-protocol message. One struct covers the whole exchange;
/// which fields are meaningful depends on `kind`.
struct ReconfigMsg {
  enum class Kind : std::uint8_t {
    kPrepare,      // coordinator -> members + subject: proposed next view
    kAck,          // participant -> coordinator: prepare durable (joiner:
                   // also state transfer complete)
    kActivate,     // coordinator -> members + subject: view agreed, switch
    kAbort,        // coordinator -> members + subject: proposal abandoned
    kSnapRequest,  // joiner -> donor: ship a store snapshot of `parts`
    kSnapReply,    // donor -> joiner: snapshot + serialized WAL tail
    kInstall,      // member -> late-joining member: forwarded commit
  };
  Kind kind = Kind::kPrepare;
  EpochId epoch = 0;    // the epoch being created (kInstall: txn epoch)
  SiteId from = kNoSite;
  std::shared_ptr<const MembershipView> view{};  // kPrepare / kActivate
  ReconfigKind change = ReconfigKind::kJoin;     // kPrepare
  SiteId subject = kNoSite;  // kPrepare: joining/retiring site
  std::vector<PartitionId> parts{};       // kSnapRequest
  std::shared_ptr<const void> payload{};  // kSnapReply / kInstall
  std::uint64_t bytes = 0;                // analytic payload size
};

}  // namespace gdur::core

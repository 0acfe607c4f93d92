#include "checker/history.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace gdur::checker {

void History::attach(core::Cluster& cluster) {
  part_ = cluster.partitioner();
  cluster.set_install_observer(
      [this](const core::Cluster::InstallEvent& e) { record_install(e); });
}

void History::record_txn(const core::TxnRecord& t, bool committed,
                         SimTime response) {
  built_ = false;
  // Offsets are 32-bit: a history holds far fewer than 2^32 reads.
  txns_.push_back(TxnSummary{
      .id = t.id,
      .begin_time = t.begin_time,
      .submit_time = t.submit_time,
      .response_time = response,
      .reads_at = static_cast<std::uint32_t>(reads_.size()),
      .n_reads = static_cast<std::uint32_t>(t.reads.size()),
      .writes_at = static_cast<std::uint32_t>(writes_.size()),
      .n_writes = static_cast<std::uint32_t>(t.ws.size()),
      .epoch = t.epoch,
      .committed = committed});
  for (const auto& r : t.reads) reads_.push_back(ReadPair{r.obj, r.writer});
  writes_.insert(writes_.end(), t.ws.begin(), t.ws.end());
}

void History::record_install(const core::Cluster::InstallEvent& e) {
  built_ = false;
  installs_.push_back(e);
}

std::size_t History::committed_count() const {
  std::size_t n = 0;
  for (const auto& t : txns_)
    if (t.committed) ++n;
  return n;
}

void History::build_orders() const {
  if (built_) return;
  built_ = true;
  orders_.clear();
  committed_index_.clear();
  authority_.clear();
  for (std::size_t i = 0; i < txns_.size(); ++i)
    if (txns_[i].committed) committed_index_[txns_[i].id] = i;
  // Installs are recorded in simulated-time order (single-threaded event
  // loop); one site's install stream per partition is the version order.
  // That site is the replica with the longest stream — with a fixed
  // membership every replica installs every write of its partition, so the
  // tie-break (primary first) reduces to the classic primary-site rule; a
  // primary that retired or joined mid-run has a truncated stream and loses
  // authority to a replica that saw the whole run.
  if (part_.has_value()) {
    const auto& part = *part_;
    std::unordered_map<PartitionId, std::unordered_map<SiteId, std::size_t>>
        stream_len;
    for (const auto& e : installs_)
      ++stream_len[part.partition_of(e.obj)][e.site];
    for (const auto& [p, by_site] : stream_len) {  // gdur-lint: allow(determinism/unordered-iter) per-partition argmax, partitions independent
      const SiteId primary = part.primary_of(p);
      std::size_t best_len = 0;
      SiteId best = primary;
      for (SiteId s : part.sites_of(p)) {  // deterministic candidate order
        const auto it = by_site.find(s);
        const std::size_t len = it == by_site.end() ? 0 : it->second;
        const bool wins =
            len > best_len ||
            (len == best_len && (s == primary || (best != primary && s < best)));
        if (wins) {
          best = s;
          best_len = len;
        }
      }
      authority_[p] = best;
    }
  }
  for (const auto& e : installs_) {
    if (part_.has_value() &&
        authority_of(part_->partition_of(e.obj)) != e.site)
      continue;
    orders_[e.obj].writers.push_back(e.writer);
  }
}

SiteId History::authority_of(PartitionId p) const {
  const auto it = authority_.find(p);
  return it == authority_.end() ? part_->primary_of(p) : it->second;
}

namespace {
/// Position of `writer`'s version of an object in its version order;
/// -1 = initial version; -2 = unknown (not installed at the primary).
int version_index(const std::vector<TxnId>& writers, const TxnId& writer) {
  if (!writer.valid()) return -1;
  for (std::size_t i = 0; i < writers.size(); ++i)
    if (writers[i] == writer) return static_cast<int>(i);
  return -2;
}
}  // namespace

CheckResult History::check_read_committed() const {
  build_orders();
  for (const auto& out : txns_) {
    if (!out.committed) continue;
    for (const auto& r : reads_of(out)) {
      if (!r.writer.valid()) continue;  // initial version
      if (committed_index_.contains(r.writer)) continue;
      // A version may be installed (hence committed) even if its
      // coordinator's client response fell outside the recording window.
      const auto it = orders_.find(r.obj);
      if (it != orders_.end() &&
          version_index(it->second.writers, r.writer) >= 0)
        continue;
      return {false, out.id.str() + " read uncommitted version of object " +
                         std::to_string(r.obj) + " written by " +
                         r.writer.str()};
    }
  }
  return {};
}

CheckResult History::acyclic_dsg(bool updates_only) const {
  build_orders();
  // Node ids: indices into txns_ of committed transactions in scope.
  std::unordered_map<TxnId, int> node;
  std::vector<const TxnSummary*> records;
  for (const auto& out : txns_) {
    if (!out.committed) continue;
    if (updates_only && out.read_only()) continue;
    node[out.id] = static_cast<int>(records.size());
    records.push_back(&out);
  }
  std::vector<std::vector<int>> adj(records.size());
  const auto add_edge = [&](const TxnId& a, const TxnId& b) {
    if (a == b) return;
    const auto ia = node.find(a);
    const auto ib = node.find(b);
    if (ia == node.end() || ib == node.end()) return;
    adj[static_cast<std::size_t>(ia->second)].push_back(ib->second);
  };

  // ww edges: consecutive writers of each object. orders_ is hash-ordered;
  // visit objects in sorted order so the adjacency lists — and therefore
  // which cycle a search reports first — do not depend on container hash
  // order (checker output must be reproducible across stdlib versions).
  std::vector<ObjectId> objs;
  objs.reserve(orders_.size());
  for (const auto& [obj, order] : orders_)  // gdur-lint: allow(determinism/unordered-iter) key harvest only; sorted below
    objs.push_back(obj);
  std::sort(objs.begin(), objs.end());
  for (ObjectId obj : objs) {
    const auto& order = orders_.find(obj)->second;
    for (std::size_t i = 1; i < order.writers.size(); ++i)
      add_edge(order.writers[i - 1], order.writers[i]);
  }
  // wr and rw edges.
  for (const TxnSummary* t : records) {
    for (const auto& r : reads_of(*t)) {
      if (r.writer.valid()) add_edge(r.writer, t->id);  // wr
      const auto it = orders_.find(r.obj);
      if (it == orders_.end()) continue;
      const int idx = version_index(it->second.writers, r.writer);
      if (idx == -2) continue;  // unknown version: no rw edge derivable
      const auto next = static_cast<std::size_t>(idx + 1);
      if (next < it->second.writers.size())
        add_edge(t->id, it->second.writers[next]);  // rw anti-dependency
    }
  }

  // Iterative three-color DFS cycle detection.
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> color(records.size(), kWhite);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int s = 0; s < static_cast<int>(records.size()); ++s) {
    if (color[static_cast<std::size_t>(s)] != kWhite) continue;
    stack.emplace_back(s, 0);
    color[static_cast<std::size_t>(s)] = kGray;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto& edges = adj[static_cast<std::size_t>(u)];
      if (next < edges.size()) {
        const int v = edges[next++];
        if (color[static_cast<std::size_t>(v)] == kGray) {
          // The gray path on the stack from v's frame back to the top is
          // the cycle — name every member, not just the entry point.
          std::string cycle;
          bool in_cycle = false;
          for (const auto& [node, pos] : stack) {
            if (node == v) in_cycle = true;
            if (!in_cycle) continue;
            cycle += records[static_cast<std::size_t>(node)]->id.str();
            cycle += " -> ";
          }
          cycle += records[static_cast<std::size_t>(v)]->id.str();
          return {false, "serialization cycle: " + cycle};
        }
        if (color[static_cast<std::size_t>(v)] == kWhite) {
          color[static_cast<std::size_t>(v)] = kGray;
          stack.emplace_back(v, 0);
        }
      } else {
        color[static_cast<std::size_t>(u)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

CheckResult History::check_serializable() const { return acyclic_dsg(false); }

CheckResult History::check_update_serializable() const {
  auto r = acyclic_dsg(true);
  if (!r.ok) return r;
  return check_consistent_snapshots();
}

CheckResult History::check_ww_exclusion() const {
  build_orders();
  // Concurrency is under-approximated so that every reported violation is
  // real: two transactions are *definitely* concurrent iff each began
  // before the other was even submitted (submission precedes commitment).
  const auto definitely_concurrent = [](const TxnSummary& a,
                                        const TxnSummary& b) {
    return a.begin_time < b.submit_time && b.begin_time < a.submit_time;
  };

  // wr (reads-from) adjacency for the snapshot-dependency exception: under
  // NMSI a transaction whose snapshot contains the other writer is not
  // concurrent with it.
  std::unordered_map<TxnId, std::vector<TxnId>> wr;
  for (const auto& out : txns_) {
    if (!out.committed) continue;
    for (const auto& r : reads_of(out))
      if (r.writer.valid()) wr[r.writer].push_back(out.id);
  }
  const auto reads_from_reachable = [&](const TxnId& from, const TxnId& to) {
    std::unordered_set<TxnId> seen{from};
    std::deque<TxnId> bfs{from};
    while (!bfs.empty()) {
      const TxnId u = bfs.front();
      bfs.pop_front();
      if (u == to) return true;
      const auto it = wr.find(u);
      if (it == wr.end()) continue;
      for (const TxnId& v : it->second)
        if (seen.insert(v).second) bfs.push_back(v);
    }
    return false;
  };

  // Partition-level dependence (matches the PDV granularity of §4.1): Tj
  // depends on Ti's write of x if Tj read any version of x's partition
  // installed at-or-after Ti's write of x.
  std::unordered_map<ObjectId, std::unordered_map<TxnId, std::size_t>>
      install_pos;  // per object: writer -> per-partition sequence position
  std::unordered_map<PartitionId, std::size_t> part_seq;
  if (part_.has_value()) {
    const auto& part = *part_;
    for (const auto& e : installs_) {
      const PartitionId p = part.partition_of(e.obj);
      if (authority_of(p) != e.site) continue;
      install_pos[e.obj][e.writer] = part_seq[p]++;
    }
  }
  const auto partition_dependent = [&](const TxnSummary& reader,
                                       const TxnSummary& writer,
                                       ObjectId conflict_obj) {
    if (!part_.has_value()) return false;
    const auto& part = *part_;
    const auto wo = install_pos.find(conflict_obj);
    if (wo == install_pos.end()) return false;
    const auto wp = wo->second.find(writer.id);
    if (wp == wo->second.end()) return false;
    const PartitionId p = part.partition_of(conflict_obj);
    for (const auto& r : reads_of(reader)) {
      if (!r.writer.valid() || part.partition_of(r.obj) != p) continue;
      const auto ro = install_pos.find(r.obj);
      if (ro == install_pos.end()) continue;
      const auto rp = ro->second.find(r.writer);
      if (rp != ro->second.end() && rp->second >= wp->second) return true;
    }
    return false;
  };

  // Group committed updates by written object. Checked in sorted object
  // order so the conflict reported (first found) is deterministic instead
  // of hash-order dependent.
  std::unordered_map<ObjectId, std::vector<const TxnSummary*>> by_obj;
  for (const auto& out : txns_) {
    if (!out.committed || out.read_only()) continue;
    for (ObjectId o : writes_of(out)) by_obj[o].push_back(&out);
  }
  std::vector<ObjectId> conflict_objs;
  conflict_objs.reserve(by_obj.size());
  for (const auto& [obj, writers] : by_obj)  // gdur-lint: allow(determinism/unordered-iter) key harvest only; sorted below
    conflict_objs.push_back(obj);
  std::sort(conflict_objs.begin(), conflict_objs.end());
  for (ObjectId obj : conflict_objs) {
    const auto& writers = by_obj.find(obj)->second;
    for (std::size_t i = 0; i < writers.size(); ++i) {
      for (std::size_t j = i + 1; j < writers.size(); ++j) {
        const auto& a = *writers[i];
        const auto& b = *writers[j];
        if (!definitely_concurrent(a, b)) continue;
        if (reads_from_reachable(a.id, b.id) ||
            reads_from_reachable(b.id, a.id))
          continue;
        if (partition_dependent(a, b, obj) || partition_dependent(b, a, obj))
          continue;
        return {false, "concurrent write-write conflict on object " +
                           std::to_string(obj) + ": " + a.id.str() + " and " +
                           b.id.str()};
      }
    }
  }
  return {};
}

CheckResult History::check_consistent_snapshots() const {
  build_orders();
  // Written-objects index: (writer, object) -> wrote it?
  for (const auto& out : txns_) {
    if (!out.committed) continue;
    const auto reads = reads_of(out);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      for (std::size_t j = 0; j < reads.size(); ++j) {
        if (i == j) continue;
        const auto& rx = reads[i];  // read of x ...
        const auto& ry = reads[j];  // ... and of y, written by W = ry.writer
        if (!ry.writer.valid()) continue;
        const auto wit = committed_index_.find(ry.writer);
        if (wit == committed_index_.end()) continue;
        const auto& w = txns_[wit->second];
        const auto w_ws = writes_of(w);
        if (!std::binary_search(w_ws.begin(), w_ws.end(), rx.obj)) continue;
        // W wrote both x and y, and this txn read y from W (or later).
        // Its read of x must then be W's version of x or newer.
        const auto ox = orders_.find(rx.obj);
        if (ox == orders_.end()) continue;
        const int read_idx = version_index(ox->second.writers, rx.writer);
        const int w_idx = version_index(ox->second.writers, w.id);
        if (read_idx == -2 || w_idx == -2) continue;
        if (read_idx < w_idx) {
          return {false, out.id.str() + " observed a fractured snapshot: " +
                             "read object " + std::to_string(ry.obj) +
                             " from " + w.id.str() + " but object " +
                             std::to_string(rx.obj) + " from before it"};
        }
      }
    }
  }
  return {};
}

CheckResult History::check_criterion(const std::string& criterion) const {
  if (auto r = check_read_committed(); !r.ok) return r;
  if (criterion == "RC") return {};
  if (criterion == "SER") {
    if (auto r = check_consistent_snapshots(); !r.ok) return r;
    return check_serializable();
  }
  if (criterion == "US") return check_update_serializable();
  if (criterion == "SI" || criterion == "PSI" || criterion == "NMSI") {
    if (auto r = check_consistent_snapshots(); !r.ok) return r;
    return check_ww_exclusion();
  }
  if (criterion == "RA") return check_consistent_snapshots();
  return {false, "unknown criterion: " + criterion};
}

}  // namespace gdur::checker

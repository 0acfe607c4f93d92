// Placement of objects onto partitions and partitions onto sites.
//
// Objects are assigned to partitions by id modulo the partition count, so a
// workload generator can target a site's partitions directly (needed for the
// locality experiment of Figure 5). Each partition is replicated at
// `replication` consecutive sites: replication = 1 is the paper's
// Disaster-Prone configuration, 2 is Disaster-Tolerant.
//
// Placement queries sit on every transaction's path (workload generation,
// certification, termination fan-out), so the per-object ones never
// allocate: replica lists are views over a table built once in the
// constructor, and replicas_of allocates only the vector it returns.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "common/obj_set.h"
#include "common/types.h"

namespace gdur::store {

class Partitioner {
 public:
  Partitioner(int sites, int replication, std::uint64_t objects,
              int partitions_per_site = 1)
      : sites_(sites),
        rf_(replication),
        objects_(objects),
        partitions_(static_cast<PartitionId>(sites * partitions_per_site)) {
    assert(replication >= 1 && replication <= sites);
    table_.reserve(static_cast<std::size_t>(partitions_) *
                   static_cast<std::size_t>(rf_));
    for (PartitionId p = 0; p < partitions_; ++p)
      for (int k = 0; k < rf_; ++k)
        table_.push_back(static_cast<SiteId>(
            (primary_of(p) + static_cast<SiteId>(k)) %
            static_cast<SiteId>(sites_)));
  }

  [[nodiscard]] int sites() const { return sites_; }
  [[nodiscard]] int replication() const { return rf_; }
  [[nodiscard]] std::uint64_t objects() const { return objects_; }
  [[nodiscard]] PartitionId partitions() const { return partitions_; }

  [[nodiscard]] PartitionId partition_of(ObjectId o) const {
    return static_cast<PartitionId>(o % partitions_);
  }

  [[nodiscard]] SiteId primary_of(PartitionId p) const {
    return static_cast<SiteId>(p % static_cast<PartitionId>(sites_));
  }

  /// Sites replicating partition `p`: the primary plus the next rf-1 sites.
  [[nodiscard]] std::span<const SiteId> sites_of(PartitionId p) const {
    return {table_.data() + static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(rf_),
            static_cast<std::size_t>(rf_)};
  }

  [[nodiscard]] std::span<const SiteId> replicas_of_object(ObjectId o) const {
    return sites_of(partition_of(o));
  }

  [[nodiscard]] bool is_local(SiteId s, ObjectId o) const {
    const auto r = replicas_of_object(o);
    return std::find(r.begin(), r.end(), s) != r.end();
  }

  /// Union of replicas over a whole object set (the paper's replicas(obj)),
  /// in ascending site order.
  [[nodiscard]] std::vector<SiteId> replicas_of(const ObjSet& objs) const {
    std::vector<SiteId> out;
    out.reserve(std::min(static_cast<std::size_t>(sites_),
                         objs.size() * static_cast<std::size_t>(rf_)));
    for (ObjectId o : objs)
      for (SiteId r : replicas_of_object(o))
        if (std::find(out.begin(), out.end(), r) == out.end())
          out.push_back(r);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// True iff every object in `objs` is replicated at a single common site.
  [[nodiscard]] bool single_site(const ObjSet& objs) const {
    if (objs.empty()) return true;
    for (int k = 0; k < sites_; ++k) {
      const auto s = static_cast<SiteId>(k);
      bool all = true;
      for (ObjectId o : objs)
        if (!is_local(s, o)) {
          all = false;
          break;
        }
      if (all) return true;
    }
    return false;
  }

  /// `i`-th object belonging to partition `p` (for locality-aware workloads).
  [[nodiscard]] ObjectId object_in_partition(PartitionId p,
                                             std::uint64_t i) const {
    return p + (i % (objects_ / partitions_)) * partitions_;
  }

 private:
  int sites_;
  int rf_;
  std::uint64_t objects_;
  PartitionId partitions_;
  std::vector<SiteId> table_;  // rf_ sites per partition, primary first
};

}  // namespace gdur::store

#include "workload/workload.h"

#include <algorithm>
#include <cmath>

namespace gdur::workload {

WorkloadSpec WorkloadSpec::A(double read_only_ratio) {
  return WorkloadSpec{.name = "A",
                      .zipfian = false,
                      .ro_reads = 2,
                      .upd_reads = 1,
                      .upd_writes = 1,
                      .read_only_ratio = read_only_ratio};
}

WorkloadSpec WorkloadSpec::B(double read_only_ratio) {
  return WorkloadSpec{.name = "B",
                      .zipfian = false,
                      .ro_reads = 4,
                      .upd_reads = 2,
                      .upd_writes = 2,
                      .read_only_ratio = read_only_ratio};
}

WorkloadSpec WorkloadSpec::C(double read_only_ratio) {
  return WorkloadSpec{.name = "C",
                      .zipfian = true,
                      .ro_reads = 2,
                      .upd_reads = 1,
                      .upd_writes = 1,
                      .read_only_ratio = read_only_ratio};
}

Generator::Generator(const WorkloadSpec& spec, const store::Partitioner& part,
                     SiteId home_site, std::uint64_t seed)
    : spec_(spec),
      part_(part),
      home_(home_site),
      rng_(seed),
      zipf_(part.objects(), spec.zipf_theta) {}

ObjectId Generator::next_key(bool local) {
  if (local) {
    // Confine to the coordinator's own partition(s).
    const auto per_site =
        static_cast<PartitionId>(part_.partitions() /
                                 static_cast<PartitionId>(part_.sites()));
    const PartitionId p = static_cast<PartitionId>(
        home_ + part_.sites() * static_cast<SiteId>(rng_.next_below(per_site)));
    const std::uint64_t idx = spec_.zipfian
                                  ? zipf_.next_scrambled(rng_)
                                  : rng_.next_below(part_.objects());
    return part_.object_in_partition(p, idx);
  }
  return spec_.zipfian ? zipf_.next_scrambled(rng_)
                       : rng_.next_below(part_.objects());
}

void Generator::pick_distinct(std::vector<ObjectId>& out, int n, bool local) {
  for (int i = 0; i < n; ++i) {
    ObjectId k;
    do {
      k = next_key(local);
    } while (std::find(out.begin(), out.end(), k) != out.end());
    out.push_back(k);
  }
}

TxnProfile Generator::next() {
  TxnProfile t;
  t.read_only = rng_.next_bool(spec_.read_only_ratio);
  t.local = spec_.locality > 0 && rng_.next_bool(spec_.locality);
  for (int attempt = 0;; ++attempt) {
    t.reads.clear();
    t.writes.clear();
    pick_distinct(t.reads, t.read_only ? spec_.ro_reads : spec_.upd_reads,
                  t.local);
    if (!t.read_only) {
      // Writes must stay distinct from the reads as well.
      std::vector<ObjectId> all = t.reads;
      pick_distinct(all, spec_.upd_writes, t.local);
      t.writes.assign(all.begin() + static_cast<long>(t.reads.size()),
                      all.end());
    }
    if (t.local) break;  // locality overrides globality
    // §8.1: transactions are global — no replica holds all their objects.
    ObjSet touched;
    for (ObjectId k : t.reads) touched.insert(k);
    for (ObjectId k : t.writes) touched.insert(k);
    if (!part_.single_site(touched) || attempt >= 16) break;
  }
  return t;
}

void ArrivalSchedule::advance() {
  const double u = rng_.next_double();
  const auto gap = static_cast<SimDuration>(-std::log(1.0 - u) / rate_ * 1e9);
  due_ += std::max<SimDuration>(gap, 1);
}

}  // namespace gdur::workload

// Tests for the YCSB-like workload generator (Table 3) and its globality /
// locality constraints (§8.1, Figure 5).
#include <gtest/gtest.h>

#include "store/partitioner.h"
#include "workload/workload.h"

namespace gdur::workload {
namespace {

TEST(WorkloadSpec, TableThreeShapes) {
  const auto a = WorkloadSpec::A();
  EXPECT_EQ(a.ro_reads, 2);
  EXPECT_EQ(a.upd_reads, 1);
  EXPECT_EQ(a.upd_writes, 1);
  EXPECT_FALSE(a.zipfian);

  const auto b = WorkloadSpec::B();
  EXPECT_EQ(b.ro_reads, 4);
  EXPECT_EQ(b.upd_reads, 2);
  EXPECT_EQ(b.upd_writes, 2);
  EXPECT_FALSE(b.zipfian);

  const auto c = WorkloadSpec::C();
  EXPECT_TRUE(c.zipfian);
  EXPECT_EQ(c.ro_reads, 2);
}

TEST(Generator, ReadOnlyRatioIsRespected) {
  const store::Partitioner part(4, 1, 10'000);
  Generator g(WorkloadSpec::A(0.9), part, 0, 42);
  int ro = 0;
  for (int i = 0; i < 10'000; ++i) ro += g.next().read_only;
  EXPECT_NEAR(ro / 10'000.0, 0.9, 0.02);
}

TEST(Generator, OpCountsMatchSpec) {
  const store::Partitioner part(4, 1, 10'000);
  Generator g(WorkloadSpec::B(0.5), part, 1, 7);
  for (int i = 0; i < 500; ++i) {
    const auto t = g.next();
    if (t.read_only) {
      EXPECT_EQ(t.reads.size(), 4u);
      EXPECT_TRUE(t.writes.empty());
    } else {
      EXPECT_EQ(t.reads.size(), 2u);
      EXPECT_EQ(t.writes.size(), 2u);
    }
  }
}

TEST(Generator, KeysAreDistinctWithinTxn) {
  const store::Partitioner part(4, 1, 100);  // tiny space forces collisions
  Generator g(WorkloadSpec::B(0.0), part, 0, 9);
  for (int i = 0; i < 500; ++i) {
    const auto t = g.next();
    std::vector<ObjectId> all = t.reads;
    all.insert(all.end(), t.writes.begin(), t.writes.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  }
}

TEST(Generator, TransactionsAreGlobalByDefault) {
  const store::Partitioner part(4, 1, 100'000);
  Generator g(WorkloadSpec::A(0.5), part, 2, 11);
  int single_site = 0;
  for (int i = 0; i < 2'000; ++i) {
    const auto t = g.next();
    ObjSet touched;
    for (auto k : t.reads) touched.insert(k);
    for (auto k : t.writes) touched.insert(k);
    single_site += part.single_site(touched);
  }
  // Rejection sampling makes single-site transactions essentially absent.
  EXPECT_LT(single_site, 10);
}

TEST(Generator, LocalityConfinesKeysToHomeSite) {
  const store::Partitioner part(4, 1, 100'000);
  auto spec = WorkloadSpec::A(0.9);
  spec.locality = 1.0;
  Generator g(spec, part, 3, 13);
  for (int i = 0; i < 500; ++i) {
    const auto t = g.next();
    EXPECT_TRUE(t.local);
    for (auto k : t.reads) EXPECT_TRUE(part.is_local(3, k));
    for (auto k : t.writes) EXPECT_TRUE(part.is_local(3, k));
  }
}

TEST(Generator, PartialLocalityMixes) {
  const store::Partitioner part(4, 1, 100'000);
  auto spec = WorkloadSpec::A(0.9);
  spec.locality = 0.5;
  Generator g(spec, part, 0, 17);
  int local = 0;
  for (int i = 0; i < 4'000; ++i) local += g.next().local;
  EXPECT_NEAR(local / 4'000.0, 0.5, 0.05);
}

TEST(Generator, ZipfianWorkloadSkewsKeys) {
  const store::Partitioner part(4, 1, 10'000);
  Generator gu(WorkloadSpec::A(0.0), part, 0, 19);
  Generator gz(WorkloadSpec::C(0.0), part, 0, 19);
  auto hottest_fraction = [](Generator& g) {
    std::unordered_map<ObjectId, int> counts;
    int total = 0;
    for (int i = 0; i < 4'000; ++i) {
      const auto t = g.next();
      for (auto k : t.reads) ++counts[k], ++total;
    }
    int best = 0;
    for (auto& [k, c] : counts) best = std::max(best, c);
    return double(best) / total;
  };
  EXPECT_GT(hottest_fraction(gz), 5 * hottest_fraction(gu));
}

TEST(Generator, DeterministicPerSeed) {
  const store::Partitioner part(4, 1, 10'000);
  Generator a(WorkloadSpec::B(0.7), part, 0, 23);
  Generator b(WorkloadSpec::B(0.7), part, 0, 23);
  for (int i = 0; i < 200; ++i) {
    const auto ta = a.next();
    const auto tb = b.next();
    EXPECT_EQ(ta.read_only, tb.read_only);
    EXPECT_EQ(ta.reads, tb.reads);
    EXPECT_EQ(ta.writes, tb.writes);
  }
}

TEST(ArrivalSchedule, FirstArrivalIsDueAtTheStart) {
  ArrivalSchedule s(1000, 7);
  s.start(seconds(3));
  EXPECT_EQ(s.due(), seconds(3));
}

TEST(ArrivalSchedule, DueTimesStrictlyIncrease) {
  // At 1e10/s the mean gap is 0.1 ns: nearly every draw truncates to 0 and
  // the 1 ns floor is what keeps the schedule moving.
  for (const double rate : {1e3, 1e10}) {
    ArrivalSchedule s(rate, 11);
    s.start(0);
    for (int i = 0; i < 10'000; ++i) {
      const SimTime before = s.due();
      s.advance();
      ASSERT_GT(s.due(), before) << "rate " << rate << ", draw " << i;
    }
  }
}

TEST(ArrivalSchedule, SeedReproducesTheSchedule) {
  ArrivalSchedule a(2500, 42), b(2500, 42), c(2500, 43);
  a.start(5);
  b.start(5);
  c.start(5);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    a.advance();
    b.advance();
    c.advance();
    ASSERT_EQ(a.due(), b.due());
    differs |= a.due() != c.due();
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalSchedule, MeanGapIsTheInverseRate) {
  constexpr double kRate = 4000;
  constexpr int kDraws = 100'000;
  ArrivalSchedule s(kRate, 3);
  s.start(0);
  for (int i = 0; i < kDraws; ++i) s.advance();
  const double mean_gap_s = to_seconds(s.due()) / kDraws;
  EXPECT_NEAR(mean_gap_s, 1 / kRate, 0.01 / kRate);
}

}  // namespace
}  // namespace gdur::workload

// Integration tests for the G-DUR engine: the execution and termination
// protocols under controlled scenarios, per commitment family.
#include <gtest/gtest.h>

#include <optional>

#include "core/cluster.h"
#include "protocols/protocols.h"

namespace gdur::core {
namespace {

ClusterConfig small_config(int sites = 4, int rf = 1) {
  ClusterConfig cfg;
  cfg.sites = sites;
  cfg.replication = rf;
  cfg.objects_per_site = 100;
  return cfg;
}

/// Runs one whole transaction to completion; blocks the simulator until the
/// outcome is known. Returns nullopt if the transaction failed during the
/// execution phase.
std::optional<bool> run_txn(Cluster& cl, SiteId coord,
                            const std::vector<ObjectId>& reads,
                            const std::vector<ObjectId>& writes,
                            SimTime start = 0) {
  auto result = std::make_shared<std::optional<bool>>();
  cl.simulator().at(start, [&cl, coord, reads, writes, result] {
    cl.begin(coord, [&cl, coord, reads, writes, result](MutTxnPtr t) {
      // The lambda reaches itself through a weak pointer: a strong one
      // would be a cycle that leaks every transaction this helper drives.
      // The pending read/write callback holds the only strong reference.
      auto step = std::make_shared<std::function<void(std::size_t)>>();
      *step = [&cl, coord, reads, writes, result, t,
               self = std::weak_ptr(step)](std::size_t i) {
        const auto step = self.lock();
        if (i < reads.size()) {
          cl.read(coord, t, reads[i], [result, step, i](bool ok) {
            if (!ok) {
              *result = std::nullopt;
              (*step)(~std::size_t{0});  // sentinel: stop
              return;
            }
            (*step)(i + 1);
          });
        } else if (i == ~std::size_t{0}) {
          // execution failure already recorded
        } else if (i - reads.size() < writes.size()) {
          cl.write(coord, t, writes[i - reads.size()],
                   [step, i] { (*step)(i + 1); });
        } else {
          cl.commit(coord, t, [result](bool ok) { *result = ok; });
        }
      };
      (*step)(0);
    });
  });
  cl.simulator().run();
  return *result;
}

/// All protocol names exercised by the engine tests.
class AllProtocols : public ::testing::TestWithParam<const char*> {};

TEST_P(AllProtocols, SingleUpdateTransactionCommits) {
  Cluster cl(small_config(), protocols::by_name(GetParam()));
  // Object 1 lives at site 1; object 2 at site 2; coordinator is site 0.
  const auto r = run_txn(cl, 0, {1}, {2});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r);
  // The write is installed at every replica of object 2.
  for (SiteId s : cl.partitioner().replicas_of_object(2))
    EXPECT_GT(cl.replica(s).latest_pidx(2), 0u);
}

TEST_P(AllProtocols, ReadOnlyTransactionCommits) {
  Cluster cl(small_config(), protocols::by_name(GetParam()));
  const auto r = run_txn(cl, 0, {1, 2}, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r);
}

TEST_P(AllProtocols, SequentialConflictingWritersBothCommit) {
  Cluster cl(small_config(), protocols::by_name(GetParam()));
  EXPECT_EQ(run_txn(cl, 0, {}, {1}), std::optional<bool>(true));
  // The second writer starts long after the first committed.
  EXPECT_EQ(run_txn(cl, 2, {}, {1}, seconds(1)), std::optional<bool>(true));
}

TEST_P(AllProtocols, ReadObservesCommittedWrite) {
  Cluster cl(small_config(), protocols::by_name(GetParam()));
  ASSERT_EQ(run_txn(cl, 0, {}, {5}), std::optional<bool>(true));
  // A later reader (fresh cluster time) sees a non-initial version.
  bool saw_version = false;
  cl.simulator().at(seconds(1), [&] {
    cl.begin(1, [&](MutTxnPtr t) {
      cl.read(1, t, 5, [&, t](bool ok) {
        ASSERT_TRUE(ok);
        saw_version = !t->reads.empty() && t->reads[0].writer.valid();
      });
    });
  });
  cl.simulator().run();
  EXPECT_TRUE(saw_version);
}

INSTANTIATE_TEST_SUITE_P(Engine, AllProtocols,
                         ::testing::Values("P-Store", "S-DUR", "GMU",
                                           "Serrano", "Walter", "Jessy2pc",
                                           "RC", "GMU*", "GMU**", "P-Store-LA",
                                           "P-Store+2PC", "P-Store-FT"));

/// Protocols × replication factor: DT mode must behave identically at the
/// API level.
class DtProtocols : public ::testing::TestWithParam<const char*> {};

TEST_P(DtProtocols, UpdateCommitsAndReplicatesTwice) {
  Cluster cl(small_config(4, 2), protocols::by_name(GetParam()));
  ASSERT_EQ(run_txn(cl, 0, {1}, {2}), std::optional<bool>(true));
  const auto replicas = cl.partitioner().replicas_of_object(2);
  ASSERT_EQ(replicas.size(), 2u);
  for (SiteId s : replicas) EXPECT_GT(cl.replica(s).latest_pidx(2), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engine, DtProtocols,
                         ::testing::Values("P-Store", "S-DUR", "GMU",
                                           "Serrano", "Walter", "Jessy2pc",
                                           "RC"));

// ---------------------------------------------------------------------------
// Conflict handling.
// ---------------------------------------------------------------------------

TEST(Conflicts, StaleWriterAbortsUnderWwProtocols) {
  for (const char* name : {"Walter", "Jessy2pc", "Serrano"}) {
    Cluster cl(small_config(), protocols::by_name(name));
    // T2 begins at time 0 (snapshot excludes everything), then T1 writes x
    // and commits, then T2 writes x: T2 must abort.
    auto t2_result = std::make_shared<std::optional<bool>>();
    auto t2 = std::make_shared<MutTxnPtr>();
    cl.simulator().at(0, [&cl, t2] {
      cl.begin(1, [t2](MutTxnPtr t) { *t2 = std::move(t); });
    });
    ASSERT_EQ(run_txn(cl, 0, {}, {2}, milliseconds(50)),
              std::optional<bool>(true))
        << name;
    cl.simulator().at(milliseconds(500), [&cl, t2, t2_result] {
      cl.write(1, *t2, 2, [&cl, t2, t2_result] {
        cl.commit(1, *t2, [t2_result](bool ok) { *t2_result = ok; });
      });
    });
    cl.simulator().run();
    ASSERT_TRUE(t2_result->has_value()) << name;
    EXPECT_FALSE(**t2_result) << name << ": stale concurrent writer must abort";
  }
}

TEST(Conflicts, StaleReaderAbortsUnderSerProtocols) {
  for (const char* name : {"P-Store", "GMU", "S-DUR", "P-Store+2PC"}) {
    Cluster cl(small_config(), protocols::by_name(name));
    // T2 reads x, then T1 overwrites x and commits, then T2 writes y and
    // tries to commit: its read is stale, so SER/US certification aborts it.
    auto t2_result = std::make_shared<std::optional<bool>>();
    auto t2 = std::make_shared<MutTxnPtr>();
    cl.simulator().at(0, [&cl, t2] {
      cl.begin(1, [&cl, t2](MutTxnPtr t) {
        *t2 = t;
        cl.read(1, t, 2, [](bool) {});
      });
    });
    ASSERT_EQ(run_txn(cl, 0, {}, {2}, milliseconds(100)),
              std::optional<bool>(true))
        << name;
    cl.simulator().at(milliseconds(600), [&cl, t2, t2_result] {
      cl.write(1, *t2, 3, [&cl, t2, t2_result] {
        cl.commit(1, *t2, [t2_result](bool ok) { *t2_result = ok; });
      });
    });
    cl.simulator().run();
    ASSERT_TRUE(t2_result->has_value()) << name;
    EXPECT_FALSE(**t2_result) << name << ": stale reader must abort";
  }
}

TEST(Conflicts, StaleReaderCommitsUnderWwOnlyProtocols) {
  // Walter/Jessy certify only writes: a stale read with a disjoint write
  // set commits (that is exactly the write-skew permissiveness of the
  // snapshot family).
  for (const char* name : {"Walter", "Jessy2pc", "RC"}) {
    Cluster cl(small_config(), protocols::by_name(name));
    auto t2_result = std::make_shared<std::optional<bool>>();
    auto t2 = std::make_shared<MutTxnPtr>();
    cl.simulator().at(0, [&cl, t2] {
      cl.begin(1, [&cl, t2](MutTxnPtr t) {
        *t2 = t;
        cl.read(1, t, 2, [](bool) {});
      });
    });
    ASSERT_EQ(run_txn(cl, 0, {}, {2}, milliseconds(100)),
              std::optional<bool>(true))
        << name;
    cl.simulator().at(milliseconds(600), [&cl, t2, t2_result] {
      cl.write(1, *t2, 3, [&cl, t2, t2_result] {
        cl.commit(1, *t2, [t2_result](bool ok) { *t2_result = ok; });
      });
    });
    cl.simulator().run();
    ASSERT_TRUE(t2_result->has_value()) << name;
    EXPECT_TRUE(**t2_result) << name;
  }
}

TEST(Conflicts, SimultaneousConflictingSubmissions) {
  // Under GC (a priori order) exactly one of two rw-conflicting
  // transactions commits; under 2PC both may preemptively abort, but never
  // do both commit.
  for (const char* name : {"P-Store", "P-Store+2PC", "GMU"}) {
    Cluster cl(small_config(), protocols::by_name(name));
    int committed = 0, aborted = 0;
    auto launch = [&](SiteId coord, ObjectId rd, ObjectId wr) {
      cl.simulator().at(0, [&cl, &committed, &aborted, coord, rd, wr] {
        cl.begin(coord, [&cl, &committed, &aborted, coord, rd, wr](MutTxnPtr t) {
          cl.read(coord, t, rd, [&cl, &committed, &aborted, coord, wr,
                                 t](bool ok) {
            ASSERT_TRUE(ok);
            cl.write(coord, t, wr, [&cl, &committed, &aborted, coord, t] {
              cl.commit(coord, t, [&committed, &aborted](bool ok2) {
                (ok2 ? committed : aborted)++;
              });
            });
          });
        });
      });
    };
    launch(0, /*read*/ 1, /*write*/ 2);
    launch(3, /*read*/ 2, /*write*/ 1);
    cl.simulator().run();
    EXPECT_EQ(committed + aborted, 2) << name;
    EXPECT_LE(committed, 1) << name << ": rw-conflicting pair cannot both commit";
    if (std::string(name) == "P-Store") {
      // A priori ordering resolves the conflict in favor of one of them.
      EXPECT_EQ(committed, 1) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Structural behaviors.
// ---------------------------------------------------------------------------

TEST(Engine, WaitFreeQueriesAreFasterThanCertifiedOnes) {
  const auto measure_query = [](const ProtocolSpec& spec) {
    Cluster cl(small_config(), spec);
    SimTime committed_at = 0;
    cl.simulator().at(0, [&] {
      cl.begin(0, [&](MutTxnPtr t) {
        cl.read(0, t, 1, [&, t](bool) {
          cl.commit(0, t, [&](bool ok) {
            ASSERT_TRUE(ok);
            committed_at = cl.simulator().now();
          });
        });
      });
    });
    cl.simulator().run();
    return committed_at;
  };
  const SimTime walter = measure_query(protocols::walter());
  const SimTime p_store = measure_query(protocols::p_store());
  // Walter's query commits locally; P-Store's goes through AM-Cast.
  EXPECT_LT(walter, p_store - milliseconds(15));
}

TEST(Engine, ReadYourOwnWriteIsLocal) {
  Cluster cl(small_config(), protocols::jessy2pc());
  bool read_ok = false;
  SimTime read_done = 0;
  cl.simulator().at(0, [&] {
    cl.begin(0, [&](MutTxnPtr t) {
      // Object 1 is NOT local to site 0, but after writing it the read is
      // served from the write buffer without any remote hop.
      cl.write(0, t, 1, [&, t] {
        const SimTime before = cl.simulator().now();
        cl.read(0, t, 1, [&, before](bool ok) {
          read_ok = ok;
          read_done = cl.simulator().now() - before;
        });
      });
    });
  });
  cl.simulator().run();
  EXPECT_TRUE(read_ok);
  EXPECT_LT(read_done, milliseconds(5));  // just the client round trip
}

TEST(Engine, RemoteReadReturnsVersionData) {
  Cluster cl(small_config(), protocols::gmu());
  ASSERT_EQ(run_txn(cl, 1, {}, {2}), std::optional<bool>(true));
  // Coordinator 0 reads object 2 (hosted at site 2): remote read.
  std::optional<ReadEntry> entry;
  cl.simulator().at(seconds(1), [&] {
    cl.begin(0, [&](MutTxnPtr t) {
      cl.read(0, t, 2, [&, t](bool ok) {
        ASSERT_TRUE(ok);
        entry = t->reads.at(0);
      });
    });
  });
  cl.simulator().run();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->obj, 2u);
  EXPECT_TRUE(entry->writer.valid());
  EXPECT_GT(entry->pidx, 0u);
}

TEST(Engine, SerranoIndexIsConsistentAcrossSites) {
  Cluster cl(small_config(), protocols::serrano());
  ASSERT_EQ(run_txn(cl, 0, {}, {1}), std::optional<bool>(true));
  ASSERT_EQ(run_txn(cl, 2, {}, {1}, milliseconds(300)),
            std::optional<bool>(true));
  cl.simulator().run();
  const auto expected = cl.replica(0).latest_seq_of(1);
  EXPECT_GT(expected, 0u);
  for (SiteId s = 1; s < 4; ++s)
    EXPECT_EQ(cl.replica(s).latest_seq_of(1), expected) << "site " << s;
}

TEST(Engine, WalterPropagationMakesRemoteWritesVisible) {
  Cluster cl(small_config(), protocols::walter());
  // Site 0 coordinates a write to object 1 (hosted at site 1).
  ASSERT_EQ(run_txn(cl, 0, {}, {1}), std::optional<bool>(true));
  // Much later, a transaction starting at site 3 (neither coordinator nor
  // write replica) must see the new version thanks to background
  // propagation of the version vector.
  std::optional<ReadEntry> entry;
  cl.simulator().at(seconds(2), [&] {
    cl.begin(3, [&](MutTxnPtr t) {
      cl.read(3, t, 1, [&, t](bool ok) {
        ASSERT_TRUE(ok);
        entry = t->reads.at(0);
      });
    });
  });
  cl.simulator().run();
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->writer.valid()) << "stale read despite propagation";
}

TEST(Engine, CoordinatorNeedNotReplicateAnything) {
  // All objects read and written live on other sites.
  for (const char* name : {"P-Store", "Walter", "Serrano"}) {
    Cluster cl(small_config(), protocols::by_name(name));
    EXPECT_EQ(run_txn(cl, 0, {1, 2}, {3}), std::optional<bool>(true)) << name;
  }
}

TEST(Engine, TwoPcTerminationIsFasterThanAbCast) {
  const auto term_latency = [](const ProtocolSpec& spec) {
    Cluster cl(small_config(), spec);
    SimTime submit = 0, done = 0;
    cl.simulator().at(0, [&] {
      cl.begin(0, [&](MutTxnPtr t) {
        cl.write(0, t, 1, [&, t] {
          submit = cl.simulator().now();
          cl.commit(0, t, [&](bool ok) {
            ASSERT_TRUE(ok);
            done = cl.simulator().now();
          });
        });
      });
    });
    cl.simulator().run();
    return done - submit;
  };
  EXPECT_LT(term_latency(protocols::jessy2pc()),
            term_latency(protocols::serrano()));
}

// record_read must be idempotent per object: a transaction that re-reads an
// object keeps ONE ReadEntry, updated to the version the re-read observed.
// Before the fix, every re-read appended a duplicate — certifiers re-checked
// the stale entry and read_of() answered with whichever came first.
TEST(RepeatedRead, LocalReReadKeepsOneEntryWithLatestVersion) {
  Cluster cl(small_config(), protocols::by_name("P-Store"));
  // Object 4 lives at coordinator site 0: both reads take the local path.
  ASSERT_EQ(run_txn(cl, 0, {}, {4}), std::optional<bool>(true));

  MutTxnPtr reader;
  int reads_ok = 0;
  cl.simulator().at(seconds(1), [&] {
    cl.begin(0, [&](MutTxnPtr t) {
      reader = t;
      cl.read(0, t, 4, [&](bool ok) { reads_ok += ok ? 1 : 0; });
    });
  });
  // A writer commits a second version of object 4 between the two reads.
  cl.simulator().at(seconds(2), [&] {
    cl.begin(0, [&](MutTxnPtr t) {
      cl.write(0, t, 4, [&cl, t] { cl.commit(0, t, [](bool) {}); });
    });
  });
  cl.simulator().at(seconds(3), [&] {
    cl.read(0, reader, 4, [&](bool ok) { reads_ok += ok ? 1 : 0; });
  });
  cl.simulator().run();

  ASSERT_EQ(reads_ok, 2);
  ASSERT_EQ(reader->reads.size(), 1u);  // no duplicate entry
  EXPECT_EQ(reader->reads[0].obj, ObjectId(4));
  // P-Store chooses the last committed version, so the re-read observed the
  // writer's install and the single entry must carry it.
  EXPECT_EQ(reader->reads[0].pidx, cl.replica(0).latest_pidx(4));
  EXPECT_EQ(reader->rs.size(), 1u);
}

TEST(RepeatedRead, RemoteReReadKeepsOneEntryWithLatestVersion) {
  Cluster cl(small_config(), protocols::by_name("P-Store"));
  // Object 5 lives at site 1: reads from coordinator 0 take the remote path.
  ASSERT_EQ(run_txn(cl, 1, {}, {5}), std::optional<bool>(true));

  MutTxnPtr reader;
  int reads_ok = 0;
  cl.simulator().at(seconds(1), [&] {
    cl.begin(0, [&](MutTxnPtr t) {
      reader = t;
      cl.read(0, t, 5, [&](bool ok) { reads_ok += ok ? 1 : 0; });
    });
  });
  cl.simulator().at(seconds(2), [&] {
    cl.begin(1, [&](MutTxnPtr t) {
      cl.write(1, t, 5, [&cl, t] { cl.commit(1, t, [](bool) {}); });
    });
  });
  cl.simulator().at(seconds(3), [&] {
    cl.read(0, reader, 5, [&](bool ok) { reads_ok += ok ? 1 : 0; });
  });
  cl.simulator().run();

  ASSERT_EQ(reads_ok, 2);
  ASSERT_EQ(reader->reads.size(), 1u);
  EXPECT_EQ(reader->reads[0].obj, ObjectId(5));
  EXPECT_EQ(reader->reads[0].pidx, cl.replica(1).latest_pidx(5));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cl(small_config(), protocols::gmu());
    std::vector<std::pair<SimTime, bool>> outcomes;
    for (int i = 0; i < 5; ++i) {
      const auto r = run_txn(cl, static_cast<SiteId>(i % 4), {ObjectId(i)},
                             {ObjectId(i + 10)},
                             static_cast<SimTime>(i) * milliseconds(7));
      outcomes.emplace_back(cl.simulator().now(), r.value_or(false));
    }
    return outcomes;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace gdur::core

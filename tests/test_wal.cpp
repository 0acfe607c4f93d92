// Tests for the write-ahead log (persistence layer) and durable clusters.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster.h"
#include "core/membership.h"
#include "core/transaction.h"
#include "protocols/protocols.h"
#include "store/wal.h"

namespace gdur::store {
namespace {

TEST(Wal, SingleAppendCompletesAfterSyncLatency) {
  sim::Simulator sim;
  WriteAheadLog wal(sim, {.sync_latency = milliseconds(2), .per_byte_ns = 0});
  SimTime done = 0;
  sim.at(0, [&] { wal.append(100, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, milliseconds(2));
  EXPECT_EQ(wal.appends(), 1u);
  EXPECT_EQ(wal.syncs(), 1u);
}

TEST(Wal, GroupCommitBatchesConcurrentAppends) {
  sim::Simulator sim;
  WriteAheadLog wal(sim, {.sync_latency = milliseconds(2), .per_byte_ns = 0});
  int done = 0;
  sim.at(0, [&] {
    wal.append(10, [&] { ++done; });
  });
  // These arrive while the first sync is in flight: they share the second.
  sim.at(milliseconds(1), [&] {
    for (int i = 0; i < 10; ++i) wal.append(10, [&] { ++done; });
  });
  sim.run();
  EXPECT_EQ(done, 11);
  EXPECT_EQ(wal.syncs(), 2u);  // not 11
}

TEST(Wal, CompletionOrderMatchesAppendOrder) {
  sim::Simulator sim;
  WriteAheadLog wal(sim, {.sync_latency = milliseconds(1), .per_byte_ns = 0});
  std::vector<int> order;
  sim.at(0, [&] {
    for (int i = 0; i < 5; ++i) wal.append(1, [&, i] { order.push_back(i); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Wal, RespectsMaxBatch) {
  sim::Simulator sim;
  WriteAheadLog wal(
      sim, {.sync_latency = milliseconds(1), .per_byte_ns = 0, .max_batch = 4});
  int done = 0;
  sim.at(0, [&] {
    for (int i = 0; i < 10; ++i) wal.append(1, [&] { ++done; });
  });
  sim.run();
  EXPECT_EQ(done, 10);
  // The first record syncs alone (it does not wait), then 4 + 4 + 1.
  EXPECT_EQ(wal.syncs(), 4u);
}

TEST(Wal, BytesAreAccounted) {
  sim::Simulator sim;
  WriteAheadLog wal(sim);
  sim.at(0, [&] {
    wal.append(100, [] {});
    wal.append(200, [] {});
  });
  sim.run();
  EXPECT_EQ(wal.bytes_logged(), 300u);
}

TEST(Wal, LargeRecordsTakeLonger) {
  sim::Simulator sim;
  WriteAheadLog wal(sim,
                    {.sync_latency = milliseconds(1), .per_byte_ns = 1000.0});
  SimTime small = 0, large = 0;
  sim.at(0, [&] { wal.append(1000, [&] { small = sim.now(); }); });
  sim.run();
  const SimTime base = sim.now();
  sim.at(base, [&] { wal.append(1'000'000, [&] { large = sim.now() - base; }); });
  sim.run();
  EXPECT_GT(large, small);
}

// --- byte format: round trips and torn writes -------------------------------

WalRecord term_record(WalRecord::Kind kind, std::uint32_t coord,
                      std::uint64_t seq, bool flag, EpochId epoch) {
  WalRecord rec;
  rec.kind = kind;
  rec.txn = TxnId{coord, seq};
  rec.flag = flag;
  rec.epoch = epoch;
  auto t = std::make_shared<core::TxnRecord>();
  t->id = rec.txn;
  t->rs = ObjSet{1, 2, 3};
  t->ws = ObjSet{2, 7};
  t->epoch = epoch;
  rec.payload = std::shared_ptr<const core::TxnRecord>(std::move(t));
  return rec;
}

WalRecord reconfig_record(WalRecord::Kind kind, EpochId epoch,
                          std::vector<SiteId> members) {
  WalRecord rec;
  rec.kind = kind;
  rec.txn = TxnId{0, 1};
  rec.epoch = epoch;
  core::MembershipView v;
  v.epoch = epoch;
  v.members = std::move(members);
  rec.payload = std::make_shared<const core::MembershipView>(std::move(v));
  return rec;
}

std::vector<WalRecord> sample_log() {
  return {term_record(WalRecord::Kind::kDeliver, 2, 11, false, 0),
          term_record(WalRecord::Kind::kVote, 2, 11, true, 0),
          reconfig_record(WalRecord::Kind::kReconfigPrepare, 1, {0, 1, 2, 4}),
          reconfig_record(WalRecord::Kind::kReconfigCommit, 1, {0, 1, 2, 4}),
          term_record(WalRecord::Kind::kDecision, 3, 900, true, 1)};
}

TEST(WalCodec, RoundTripsTerminationAndReconfigRecords) {
  const auto records = sample_log();
  bool torn = true;
  const auto back = deserialize_records(serialize_records(records), &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].kind, records[i].kind) << "record " << i;
    EXPECT_EQ(back[i].txn, records[i].txn) << "record " << i;
    EXPECT_EQ(back[i].flag, records[i].flag) << "record " << i;
    EXPECT_EQ(back[i].epoch, records[i].epoch) << "record " << i;
    ASSERT_NE(back[i].payload, nullptr) << "record " << i;
  }
  const auto* t = static_cast<const core::TxnRecord*>(back[1].payload.get());
  EXPECT_EQ(t->id, (TxnId{2, 11}));
  EXPECT_EQ(t->rs, (ObjSet{1, 2, 3}));
  EXPECT_EQ(t->ws, (ObjSet{2, 7}));
  const auto* v =
      static_cast<const core::MembershipView*>(back[3].payload.get());
  EXPECT_EQ(v->epoch, 1u);
  EXPECT_EQ(v->members, (std::vector<SiteId>{0, 1, 2, 4}));
}

TEST(WalCodec, TruncationAnywhereStopsAtLastCompleteRecord) {
  const auto records = sample_log();
  const auto bytes = serialize_records(records);
  // Record boundaries, for deciding how many records each prefix holds.
  std::vector<std::size_t> ends;
  for (std::size_t i = 1; i <= records.size(); ++i)
    ends.push_back(
        serialize_records({records.begin(), records.begin() + i}).size());
  // Every possible torn tail — mid-length-prefix, mid-body, mid-checksum —
  // must replay exactly the complete records before the tear, and flag it.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    bool torn = false;
    const auto back = deserialize_records(prefix, &torn);
    std::size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    EXPECT_EQ(back.size(), want) << "cut at byte " << cut;
    const bool at_boundary = cut == 0 || (want > 0 && ends[want - 1] == cut);
    EXPECT_EQ(torn, !at_boundary) << "cut at byte " << cut;
  }
}

TEST(WalCodec, TrailingPartialLengthPrefixIsDiscarded) {
  const auto records = sample_log();
  auto bytes = serialize_records(records);
  // A torn write that got only continuation bytes of the next record's
  // varint length prefix onto the device.
  bytes.push_back(0x85);
  bytes.push_back(0xff);
  bool torn = false;
  const auto back = deserialize_records(bytes, &torn);
  EXPECT_EQ(back.size(), records.size());
  EXPECT_TRUE(torn);
}

TEST(WalCodec, ChecksumMismatchEndsReplayAtLastGoodRecord) {
  const auto records = sample_log();
  auto bytes = serialize_records(records);
  const auto two = serialize_records({records[0], records[1]}).size();
  bytes[two + 3] ^= 0x40;  // corrupt a byte inside the third record's body
  bool torn = false;
  const auto back = deserialize_records(bytes, &torn);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_TRUE(torn);
}

TEST(WalCodec, HugeCorruptedLengthPrefixDoesNotOverflow) {
  // A corrupted (not merely truncated) length prefix can decode to a value
  // near 2^64; `pos + len + 4` must not wrap around and send the replayer
  // out of bounds.
  std::vector<std::uint8_t> bytes(32, 0x00);
  for (std::size_t i = 0; i < 9; ++i) bytes[i] = 0xff;
  bytes[9] = 0x01;  // varint terminator: len = 2^64 - 1
  bool torn = false;
  const auto back = deserialize_records(bytes, &torn);
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(torn);
}

TEST(WalCodec, GarbageKindByteRejectsRecord) {
  auto good = serialize_records({term_record(WalRecord::Kind::kVote, 1, 5,
                                             true, 0)});
  // Hand-build a "record" whose body is one byte of garbage kind, with a
  // valid length prefix and checksum — decoding must reject it.
  std::vector<std::uint8_t> bytes = good;
  const std::uint8_t body = 0xee;
  std::uint32_t h = 2166136261u;
  h ^= body;
  h *= 16777619u;
  bytes.push_back(1);  // varint length
  bytes.push_back(body);
  bytes.push_back(static_cast<std::uint8_t>(h));
  bytes.push_back(static_cast<std::uint8_t>(h >> 8));
  bytes.push_back(static_cast<std::uint8_t>(h >> 16));
  bytes.push_back(static_cast<std::uint8_t>(h >> 24));
  bool torn = false;
  const auto back = deserialize_records(bytes, &torn);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_TRUE(torn);
}

// --- durable cluster integration -------------------------------------------

std::optional<bool> run_update(core::Cluster& cl, SimTime* done_at = nullptr) {
  auto out = std::make_shared<std::optional<bool>>();
  cl.simulator().at(0, [&cl, out] {
    cl.begin(0, [&cl, out](core::MutTxnPtr t) {
      cl.write(0, t, 1, [&cl, t, out] {
        cl.commit(0, t, [out](bool ok) { *out = ok; });
      });
    });
  });
  cl.simulator().run();
  if (done_at != nullptr) *done_at = cl.simulator().now();
  return *out;
}

TEST(DurableCluster, CommitsAndLogsEveryVote) {
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.objects_per_site = 100;
  cfg.durable = true;
  core::Cluster cl(cfg, protocols::walter());
  EXPECT_EQ(run_update(cl), std::optional<bool>(true));
  // The participant (site 1 hosts object 1) logged its vote and the apply.
  ASSERT_NE(cl.wal(1), nullptr);
  EXPECT_GE(cl.wal(1)->appends(), 2u);
}

TEST(DurableCluster, DurabilityAddsLatency) {
  const auto run_with = [](bool durable) {
    core::ClusterConfig cfg;
    cfg.sites = 4;
    cfg.objects_per_site = 100;
    cfg.durable = durable;
    cfg.wal.sync_latency = milliseconds(5);
    core::Cluster cl(cfg, protocols::walter());
    SimTime done = 0;
    EXPECT_EQ(run_update(cl, &done), std::optional<bool>(true));
    return done;
  };
  EXPECT_GT(run_with(true), run_with(false) + milliseconds(4));
}

TEST(DurableCluster, InMemoryModeHasNoWal) {
  core::ClusterConfig cfg;
  cfg.sites = 4;
  cfg.objects_per_site = 100;
  core::Cluster cl(cfg, protocols::walter());
  EXPECT_EQ(cl.wal(0), nullptr);
}

}  // namespace
}  // namespace gdur::store

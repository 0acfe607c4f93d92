// Tests for the wire codec: round trips, malformed-input safety, and
// agreement with the analytic sizing helpers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/wire.h"

namespace gdur::net::codec {
namespace {

TEST(Codec, VarintRoundTripsBoundaries) {
  Writer w;
  const std::uint64_t values[] = {0,    1,        127,        128,
                                  300,  16383,    16384,      (1ULL << 32),
                                  ~0ULL};
  for (auto v : values) w.varint(v);
  Reader r(w.data());
  for (auto v : values) {
    const auto got = r.varint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VarintIsCompact) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, FixedWidthRoundTrips) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
}

TEST(Codec, StringRoundTrip) {
  Writer w;
  w.str("hello");
  w.str("");
  w.str(std::string(1000, 'x'));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str()->size(), 1000u);
}

TEST(Codec, TruncatedInputYieldsNullopt) {
  Writer w;
  w.u64(7);
  std::vector<std::uint8_t> cut(w.data().begin(), w.data().begin() + 3);
  Reader r(cut);
  EXPECT_FALSE(r.u64().has_value());
}

TEST(Codec, UnterminatedVarintYieldsNullopt) {
  std::vector<std::uint8_t> bad(12, 0xff);  // continuation bit forever
  Reader r(bad);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(Codec, StampRoundTrip) {
  versioning::Stamp s;
  s.origin = 3;
  s.seq = 123456;
  s.dep = {0, 5, 19, 1ULL << 40};
  Writer w;
  encode(w, s);
  Reader r(w.data());
  const auto got = decode<versioning::Stamp>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->origin, s.origin);
  EXPECT_EQ(got->seq, s.seq);
  EXPECT_EQ(got->dep, s.dep);
}

TEST(Codec, SnapshotRoundTrip) {
  versioning::TxnSnapshot s;
  s.vts = {1, 2, 3, 4};
  s.floor = {0, 9};
  s.ceil = {5, versioning::kNoCeiling};
  s.start_seq = 77;
  Writer w;
  encode(w, s);
  Reader r(w.data());
  const auto got = decode<versioning::TxnSnapshot>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->vts, s.vts);
  EXPECT_EQ(got->floor, s.floor);
  EXPECT_EQ(got->ceil, s.ceil);
  EXPECT_EQ(got->start_seq, s.start_seq);
}

core::TxnRecord sample_txn(std::uint64_t seed) {
  Rng rng(seed);
  core::TxnRecord t;
  t.id = {static_cast<SiteId>(rng.next_below(4)), rng.next_below(1000)};
  t.begin_time = static_cast<SimTime>(rng.next_below(1'000'000));
  t.submit_time = t.begin_time + 500;
  for (int i = 0; i < 3; ++i) t.rs.insert(rng.next_below(10'000));
  for (int i = 0; i < 2; ++i) t.ws.insert(rng.next_below(10'000));
  for (ObjectId o : t.rs) {
    t.reads.push_back({.obj = o,
                       .part = static_cast<PartitionId>(o % 4),
                       .writer = {1, rng.next_below(50)},
                       .pidx = rng.next_below(100)});
  }
  t.snap.floor = {1, 2, 3, 4};
  t.snap.ceil = {9, 9, 9, versioning::kNoCeiling};
  t.stamp = {.origin = t.id.coord, .seq = 5, .dep = {1, 2, 3, 4}};
  return t;
}

class TxnRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnRoundTrip, EncodeDecodeIsIdentity) {
  const auto t = sample_txn(GetParam());
  Writer w;
  encode(w, t, /*payload=*/64);
  Reader r(w.data());
  const auto got = decode<core::TxnRecord>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->id, t.id);
  EXPECT_EQ(got->rs, t.rs);
  EXPECT_EQ(got->ws, t.ws);
  EXPECT_EQ(got->begin_time, t.begin_time);
  EXPECT_EQ(got->reads.size(), t.reads.size());
  for (std::size_t i = 0; i < t.reads.size(); ++i) {
    EXPECT_EQ(got->reads[i].obj, t.reads[i].obj);
    EXPECT_EQ(got->reads[i].writer, t.reads[i].writer);
    EXPECT_EQ(got->reads[i].pidx, t.reads[i].pidx);
  }
  EXPECT_EQ(got->snap.floor, t.snap.floor);
  EXPECT_EQ(got->stamp.dep, t.stamp.dep);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Codec, TxnSizeTracksPayloadAndSets) {
  const auto t = sample_txn(1);
  const auto small = encoded_size(t, 0);
  const auto big = encoded_size(t, 1024);
  // Each write carries its payload plus a slightly longer length varint.
  const auto delta = big - small;
  EXPECT_GE(delta, t.ws.size() * 1024);
  EXPECT_LE(delta, t.ws.size() * (1024 + 2));
}

TEST(Codec, AnalyticSizesAreSaneApproximations) {
  // net::wire's analytic sizes should be within ~2x of the real encoding
  // for typical transactions (they deliberately round up to stable framing).
  const auto t = sample_txn(2);
  const auto real = encoded_size(t, wire::kPayload);
  const auto analytic =
      wire::termination(t.rs.size(), t.ws.size(), 8 * t.stamp.dep.size());
  EXPECT_LT(real, analytic * 2);
  EXPECT_GT(real * 2, analytic);
}

TEST(Codec, DecodeGarbageFailsCleanly) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    Reader r(junk);
    (void)decode<core::TxnRecord>(r);  // must not crash or over-read
  }
  // Junk bodies behind every inter-site message tag.
  for (std::size_t kind = 0; kind < std::variant_size_v<net::Msg>; ++kind) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint8_t> junk(1 + rng.next_below(64));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
      junk[0] = static_cast<std::uint8_t>(
          static_cast<std::size_t>(MsgType::kMsgBase) + kind);
      Reader r(junk);
      (void)decode<net::Msg>(r);
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Inter-site messages (net::Msg): byte-exact round trips, malformed-input
// rejection, and agreement with the analytic wire sizes — for EVERY kind
// the live runtime puts on the wire.
// ---------------------------------------------------------------------------

versioning::Stamp sample_stamp(Rng& rng) {
  versioning::Stamp s;
  s.origin = static_cast<SiteId>(rng.next_below(16));
  s.seq = rng.next_below(1ULL << 40);
  const auto n = rng.next_below(6);
  for (std::uint64_t i = 0; i < n; ++i) s.dep.push_back(rng.next_below(1000));
  return s;
}

versioning::TxnSnapshot sample_snap(Rng& rng) {
  versioning::TxnSnapshot s;
  const auto n = 1 + rng.next_below(5);
  for (std::uint64_t i = 0; i < n; ++i) {
    s.vts.push_back(rng.next_below(500));
    s.floor.push_back(rng.next_below(500));
    s.ceil.push_back(rng.next_bool(0.3) ? versioning::kNoCeiling
                                        : rng.next_below(500));
  }
  s.start_seq = rng.next_below(1ULL << 30);
  return s;
}

store::Version sample_version(Rng& rng) {
  store::Version v;
  v.writer = {static_cast<SiteId>(rng.next_below(8)), rng.next_below(1 << 20)};
  v.pidx = rng.next_below(1 << 16);
  v.commit_time = static_cast<SimTime>(rng.next_below(1ULL << 40));
  v.stamp = sample_stamp(rng);
  return v;
}

void expect_stamp_eq(const versioning::Stamp& a, const versioning::Stamp& b) {
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.dep, b.dep);
}

/// Message kind `kind` (an index into net::Msg) with random fields.
net::Msg sample_msg(std::size_t kind, Rng& rng) {
  auto txn = std::make_shared<core::TxnRecord>(sample_txn(rng.next()));
  txn->snap = sample_snap(rng);
  auto mc = std::make_shared<net::McastMsg>();
  mc->id = rng.next();
  mc->origin = txn->id.coord;
  mc->dests = {0, 2, 3};
  mc->proposers = {0, 3};
  mc->bytes = wire::termination(txn->rs.size(), txn->ws.size(),
                                8 * txn->stamp.dep.size());
  mc->txn = txn;
  const auto site = static_cast<SiteId>(rng.next_below(16));
  const bool flag = rng.next_bool(0.5);
  const std::uint64_t big = rng.next_below(1ULL << 40);
  std::shared_ptr<const store::Version> version;
  if (rng.next_bool(0.7))
    version = std::make_shared<const store::Version>(sample_version(rng));
  const std::vector<net::Msg> all = {
      net::VoteMsg{txn, flag},
      net::DecisionMsg{txn, flag},
      net::Paxos2aMsg{txn, flag},
      net::Paxos2bMsg{txn, site, flag},
      net::ReadRequestMsg{txn, rng.next_below(1 << 24), big},
      net::ReadReplyMsg{big, version != nullptr || flag, version},
      net::PropagateMsg{
          std::make_shared<const versioning::Stamp>(sample_stamp(rng))},
      net::SkeenStep1{mc},
      net::SkeenProposal{big, big + 1, site},
      net::SkeenRetry{mc},
      net::SkeenFinalKey{big, big + 7, site},
      net::SkeenWitness{big, flag, !flag},
      net::AbSubmit{mc},
      net::AbSequenced{mc, big},
      net::AbAck{128 + big},
      net::RmDeliver{mc},
  };
  static_assert(std::variant_size_v<net::Msg> == 16,
                "one sample per message kind");
  return all.at(kind);
}

std::vector<std::uint8_t> encoded(const net::Msg& m) {
  Writer w;
  encode(w, m);
  return w.data();
}

/// Every strict prefix of a self-delimiting encoding must be rejected with
/// nullopt: the full decode consumes every byte, so a shorter buffer always
/// starves some field.
template <typename Decode>
void expect_prefixes_rejected(const std::vector<std::uint8_t>& full,
                              Decode decode) {
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> prefix(full.begin(),
                                     full.begin() + static_cast<long>(cut));
    Reader r(prefix);
    EXPECT_FALSE(decode(r).has_value()) << "prefix of " << cut << " bytes";
  }
}

/// Random single-bit corruption must never crash or over-read; a flip may
/// still decode (flipping a value bit changes the value, not the shape) —
/// the property under test is memory safety + clean rejection, verified
/// under ASan/UBSan in CI.
template <typename Decode>
void bitflip_fuzz(const std::vector<std::uint8_t>& full, Decode decode,
                  Rng& rng) {
  for (int trial = 0; trial < 64; ++trial) {
    auto bad = full;
    const auto bit = rng.next_below(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Reader r(bad);
    (void)decode(r);
  }
}

class LiveMsgRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveMsgRoundTrip, EveryMessageKind) {
  for (std::size_t kind = 0; kind < std::variant_size_v<net::Msg>; ++kind) {
    SCOPED_TRACE("message kind " + std::to_string(kind));
    Rng rng(GetParam() * 131 + kind);
    const net::Msg m = sample_msg(kind, rng);
    const auto bytes = encoded(m);
    Reader r(bytes);
    const auto got = decode<net::Msg>(r);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(got->index(), kind);
    // Byte-exact: the decoded message re-encodes to the same frame, so
    // every field that travels survived.
    EXPECT_EQ(encoded(*got), bytes);
    const auto dec = [](Reader& rr) { return decode<net::Msg>(rr); };
    expect_prefixes_rejected(bytes, dec);
    bitflip_fuzz(bytes, dec, rng);
  }
}

TEST_P(LiveMsgRoundTrip, ControlMsg) {
  Rng rng(GetParam());
  const ControlMsg m{rng.next_below(16), rng.next_below(1ULL << 32)};
  Writer w;
  encode(w, m);
  Reader r(w.data());
  const auto got = decode<ControlMsg>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->kind, m.kind);
  EXPECT_EQ(got->arg, m.arg);
  const auto dec = [](Reader& rr) { return decode<ControlMsg>(rr); };
  expect_prefixes_rejected(w.data(), dec);
  bitflip_fuzz(w.data(), dec, rng);
}

TEST_P(LiveMsgRoundTrip, VersionStandalone) {
  Rng rng(GetParam());
  const auto v = sample_version(rng);
  Writer w;
  encode(w, v);
  Reader r(w.data());
  const auto got = decode<store::Version>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->writer, v.writer);
  EXPECT_EQ(got->pidx, v.pidx);
  EXPECT_EQ(got->commit_time, v.commit_time);
  expect_stamp_eq(got->stamp, v.stamp);
  const auto dec = [](Reader& rr) { return decode<store::Version>(rr); };
  expect_prefixes_rejected(w.data(), dec);
  bitflip_fuzz(w.data(), dec, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveMsgRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

TEST(Codec, BoolFieldsRejectNonBooleanBytes) {
  // Strict decoding: a vote/commit byte other than 0/1 is malformed, not
  // silently truthy.
  auto t = std::make_shared<core::TxnRecord>();
  t->id = {1, 2};
  auto buf = encoded(net::VoteMsg{t, true});
  buf[buf.size() - 1] = 2;  // vote byte is last
  Reader r(buf);
  EXPECT_FALSE(decode<net::Msg>(r).has_value());

  auto buf2 = encoded(net::DecisionMsg{t, false});
  buf2[buf2.size() - 1] = 0xff;
  Reader r2(buf2);
  EXPECT_FALSE(decode<net::Msg>(r2).has_value());
}

TEST(Codec, ReadReplyRejectsOverlongPayloadMarker) {
  // Truncate the after-value bytes but keep the length marker: must reject.
  auto buf = encoded(net::ReadReplyMsg{
      1, true, std::make_shared<const store::Version>()});
  buf.resize(buf.size() - 32);
  Reader r(buf);
  EXPECT_FALSE(decode<net::Msg>(r).has_value());
}

// ---------------------------------------------------------------------------
// Wire-size honesty: net::wire's analytic sizes vs the real codec encodings
// for every message class — including the classes the termination-only
// check above does not cover.
// ---------------------------------------------------------------------------

TEST(WireSizes, EveryMessageKindBracketsItsRealEncoding) {
  // What actually hits the socket per message: 4-byte length prefix + the
  // tagged codec body (live::LiveTransport frames over front::Reactor).
  constexpr std::uint64_t kFraming = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t kind = 0; kind < std::variant_size_v<net::Msg>; ++kind) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " kind " +
                   std::to_string(kind));
      Rng rng(seed * 131 + kind);
      const net::Msg m = sample_msg(kind, rng);
      // The sim charges the oracle's metadata on reads: the snapshot of a
      // request, the stamp of a reply (8 bytes per entry in the model).
      std::uint64_t meta = 0;
      bool payload = std::visit(
          [](const auto& x) { return requires { x.msg; }; }, m);
      if (const auto* q = std::get_if<net::ReadRequestMsg>(&m)) {
        meta = 8 * (q->txn->snap.vts.size() + q->txn->snap.floor.size() +
                    q->txn->snap.ceil.size());
      } else if (const auto* p = std::get_if<net::ReadReplyMsg>(&m)) {
        // The sim charges the after-value even for the implicit initial
        // version, which puts none on the wire: no bracket to check.
        if (p->version == nullptr) continue;
        meta = 8 * p->version->stamp.dep.size();
        payload = true;
      }
      const std::uint64_t real = encoded(m).size() + kFraming;
      const std::uint64_t analytic = net::wire_size(m, meta);
      if (payload) {
        // An after-value dominates both sides, so the bound tightens to 2x.
        EXPECT_LT(real, analytic * 2);
        EXPECT_GT(real * 2, analytic);
      } else {
        // Analytic sizes model the paper's Java serialization framing
        // (kHeader = 48 bytes of envelope); the varint codec is tighter. The
        // analytic size must never undercount, and must stay within one
        // order of magnitude (8x) so message-complexity accounting stays
        // meaningful.
        EXPECT_LE(real, analytic);
        EXPECT_LE(analytic, real * 8);
      }
    }
  }
  Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Writer wc;
    wc.u8(static_cast<std::uint8_t>(MsgType::kControl));
    encode(wc, ControlMsg{seed, rng.next_below(1 << 30)});
    EXPECT_LE(wc.size() + kFraming, wire::control());
    EXPECT_LE(wire::control(), (wc.size() + kFraming) * 8);
  }
}

TEST(WireSizes, TerminationWithinTwoXForAllSeeds) {
  // Closes the sampling gap of AnalyticSizesAreSaneApproximations (one
  // seed): the 2x bracket holds across the whole sample family.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto t = sample_txn(seed);
    const auto real = encoded_size(t, wire::kPayload);
    const auto analytic =
        wire::termination(t.rs.size(), t.ws.size(), 8 * t.stamp.dep.size());
    EXPECT_LT(real, analytic * 2) << "seed " << seed;
    EXPECT_GT(real * 2, analytic) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Client protocol frames (front door, MsgTypes 32-36) and kBatch: byte-exact
// round trips, truncation-anywhere rejection, garbage-fuzz safety. These
// frames cross a trust boundary — arbitrary processes can dial the front
// door — so the honesty contract (nullopt on any malformed byte, never a
// crash or over-read) is load-bearing, not hygiene.
// ---------------------------------------------------------------------------

ClientReqMsg sample_req(Rng& rng) {
  ClientReqMsg m;
  m.cookie = rng.next_below(1ULL << 50);
  m.op = static_cast<ClientOp>(1 + rng.next_below(5));
  m.txn = rng.next_below(1ULL << 40);
  m.obj = rng.next_below(1 << 24);
  const auto nr = rng.next_below(5);
  for (std::uint64_t i = 0; i < nr; ++i)
    m.reads.push_back(rng.next_below(10'000));
  const auto nw = rng.next_below(4);
  for (std::uint64_t i = 0; i < nw; ++i)
    m.writes.push_back(rng.next_below(10'000));
  return m;
}

TEST(ClientCodec, HelloRoundTrip) {
  ClientHelloMsg m;
  m.version = 1;
  m.site_hint = 2;
  Writer w;
  encode(w, m);
  Reader r(w.data());
  const auto got = decode<ClientHelloMsg>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->version, m.version);
  EXPECT_EQ(got->site_hint, m.site_hint);
}

TEST(ClientCodec, WelcomeRoundTrip) {
  ClientWelcomeMsg m;
  m.session = 0xfeedbeef12ULL;
  m.window = 64;
  m.site = 1;
  m.protocol = "Walter";
  Writer w;
  encode(w, m);
  Reader r(w.data());
  const auto got = decode<ClientWelcomeMsg>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->session, m.session);
  EXPECT_EQ(got->window, m.window);
  EXPECT_EQ(got->site, m.site);
  EXPECT_EQ(got->protocol, m.protocol);
}

TEST(ClientCodec, ReqRoundTripAllOps) {
  Rng rng(23);
  for (int trial = 0; trial < 32; ++trial) {
    const auto m = sample_req(rng);
    Writer w;
    encode(w, m);
    Reader r(w.data());
    const auto got = decode<ClientReqMsg>(r);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(got->cookie, m.cookie);
    EXPECT_EQ(got->op, m.op);
    EXPECT_EQ(got->txn, m.txn);
    EXPECT_EQ(got->obj, m.obj);
    EXPECT_EQ(got->reads, m.reads);
    EXPECT_EQ(got->writes, m.writes);
  }
}

TEST(ClientCodec, RespAndPushbackRoundTrip) {
  ClientRespMsg m;
  m.cookie = 99;
  m.op = ClientOp::kCommit;
  m.ok = true;
  m.txn = 1234;
  m.payload_bytes = 4096;
  Writer w;
  encode(w, m);
  Reader r(w.data());
  const auto got = decode<ClientRespMsg>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got->cookie, m.cookie);
  EXPECT_EQ(got->op, m.op);
  EXPECT_EQ(got->ok, m.ok);
  EXPECT_EQ(got->txn, m.txn);
  EXPECT_EQ(got->payload_bytes, m.payload_bytes);

  PushbackMsg p;
  p.stop = true;
  p.depth = 777;
  Writer wp;
  encode(wp, p);
  Reader rp(wp.data());
  const auto gp = decode<PushbackMsg>(rp);
  ASSERT_TRUE(gp.has_value());
  EXPECT_TRUE(rp.exhausted());
  EXPECT_EQ(gp->stop, p.stop);
  EXPECT_EQ(gp->depth, p.depth);
}

TEST(ClientCodec, TruncationAnywhereYieldsNullopt) {
  // Every strict prefix of every client frame must decode to nullopt:
  // the wire-honesty contract, checked exhaustively, not at sampled cut
  // points.
  Rng rng(29);
  ClientHelloMsg h;
  h.site_hint = 3;
  ClientWelcomeMsg wl;
  wl.session = 1;
  wl.window = 8;
  wl.protocol = "GMU";
  const auto req = sample_req(rng);
  ClientRespMsg resp;
  resp.cookie = 5;
  resp.ok = true;
  resp.payload_bytes = 64;
  PushbackMsg pb;
  pb.stop = true;
  pb.depth = 3;

  Writer wh, ww, wr, ws, wp;
  encode(wh, h);
  encode(ww, wl);
  encode(wr, req);
  encode(ws, resp);
  encode(wp, pb);

  auto expect_prefixes_fail = [](const std::vector<std::uint8_t>& full,
                                 auto decode, const char* what) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      std::vector<std::uint8_t> pre(full.begin(),
                                    full.begin() + static_cast<long>(cut));
      Reader r(pre);
      EXPECT_FALSE(decode(r).has_value()) << what << " cut=" << cut;
    }
  };
  expect_prefixes_fail(wh.data(), [](Reader& r) {
    return decode<ClientHelloMsg>(r);
  }, "hello");
  expect_prefixes_fail(ww.data(), [](Reader& r) {
    return decode<ClientWelcomeMsg>(r);
  }, "welcome");
  expect_prefixes_fail(wr.data(), [](Reader& r) {
    return decode<ClientReqMsg>(r);
  }, "req");
  expect_prefixes_fail(ws.data(), [](Reader& r) {
    return decode<ClientRespMsg>(r);
  }, "resp");
  expect_prefixes_fail(wp.data(), [](Reader& r) {
    return decode<PushbackMsg>(r);
  }, "pushback");
}

TEST(ClientCodec, GarbageFuzzNeverCrashes) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(48));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    {
      Reader r(junk);
      (void)decode<ClientHelloMsg>(r);
    }
    {
      Reader r(junk);
      (void)decode<ClientWelcomeMsg>(r);
    }
    {
      Reader r(junk);
      (void)decode<ClientReqMsg>(r);
    }
    {
      Reader r(junk);
      (void)decode<ClientRespMsg>(r);
    }
    {
      Reader r(junk);
      (void)decode<PushbackMsg>(r);
    }
    {
      Reader r(junk);
      (void)decode<Batch>(r);
    }
  }
  SUCCEED();
}

std::vector<std::uint8_t> tagged_vote_frame(Rng& rng) {
  auto t = std::make_shared<core::TxnRecord>();
  t->id = {static_cast<SiteId>(rng.next_below(4)), rng.next_below(1000)};
  return encoded(net::VoteMsg{t, rng.next_bool(0.5)});
}

TEST(BatchCodec, RoundTripPreservesOrderAndBytes) {
  Rng rng(37);
  std::vector<std::vector<std::uint8_t>> items;
  for (int i = 0; i < 17; ++i) items.push_back(tagged_vote_frame(rng));
  Writer w;
  encode(w, items);
  Reader r(w.data());
  const auto got = decode<Batch>(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(*got, items);  // byte-exact, order preserved
}

TEST(BatchCodec, RejectsNestedBatchAndEmptyItems) {
  Rng rng(41);
  // An inner frame tagged kBatch is a protocol error (recursion hazard).
  std::vector<std::vector<std::uint8_t>> nested;
  nested.push_back(tagged_vote_frame(rng));
  nested.push_back({static_cast<std::uint8_t>(MsgType::kBatch), 1, 1, 0});
  Writer wn;
  encode(wn, nested);
  Reader rn(wn.data());
  EXPECT_FALSE(decode<Batch>(rn).has_value());

  // Zero-length items are rejected too.
  std::vector<std::vector<std::uint8_t>> empty_item;
  empty_item.push_back({});
  Writer we;
  encode(we, empty_item);
  Reader re(we.data());
  EXPECT_FALSE(decode<Batch>(re).has_value());
}

TEST(BatchCodec, TruncationAnywhereYieldsNullopt) {
  Rng rng(43);
  std::vector<std::vector<std::uint8_t>> items;
  for (int i = 0; i < 3; ++i) items.push_back(tagged_vote_frame(rng));
  Writer w;
  encode(w, items);
  const auto& full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> pre(full.begin(),
                                  full.begin() + static_cast<long>(cut));
    Reader r(pre);
    EXPECT_FALSE(decode<Batch>(r).has_value()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace gdur::net::codec

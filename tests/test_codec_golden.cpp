// Byte-identity guard for every byte format the repo writes: one fixed
// value of each format — every inter-site message, the link handshake, the
// front-door frames, a coalesced batch, a length-prefixed stream frame, a
// history dump and a WAL image holding every record kind — is encoded and
// compared, as hex, against tests/golden/codec_vectors.txt. The wire, the
// dumps gdur_checkhist merges and the logs a joining site replays must not
// change a byte when the code that writes them changes shape.
//
// Message encoders are reached through the codec's one entry,
// `encode(w, v)`, where the tree has it, and through the per-format
// `encode_<format>(w, v)` functions it replaced otherwise, so this file
// checks a tree from either side of that change. Run with
// GDUR_UPDATE_GOLDEN=1 to rewrite the golden file.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/membership.h"
#include "front/history_log.h"
#include "front/reactor.h"
#include "net/codec.h"
#include "net/wire.h"
#include "store/wal.h"

namespace gdur::net::codec {
namespace {

constexpr const char* kGoldenPath =
    GDUR_SOURCE_DIR "/tests/golden/codec_vectors.txt";

using Bytes = std::vector<std::uint8_t>;

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t x : b) {
    out += kDigits[x >> 4];
    out += kDigits[x & 0xf];
  }
  return out;
}

/// `v` encoded by the codec's entry for every format, or by `legacy`.
template <class T, class Legacy>
Bytes bytes_of(const T& v, Legacy legacy) {
  Writer w;
  if constexpr (requires { encode(w, v); }) {
    encode(w, v);
  } else {
    legacy(w, v);
  }
  return w.data();
}

Bytes msg_bytes(const Msg& m) {
  return bytes_of(m, [](Writer& w, const auto& v) { encode_msg(w, v); });
}

core::TxnRecord fixed_txn() {
  core::TxnRecord t;
  t.id = {2, 300};
  t.epoch = 3;
  t.begin_time = 1'000'000;
  t.submit_time = 1'250'000;
  t.rs = {7, 130, 70'000};
  t.ws = {130, 5'000'000'000};
  t.reads = {{.obj = 7, .part = 1, .writer = {0, 17}, .pidx = 4},
             {.obj = 130, .part = 2, .writer = {1, 200}, .pidx = 129}};
  t.snap.vts = {1, 2, 300};
  t.snap.floor = {0, 128};
  t.snap.ceil = {versioning::kNoCeiling, 9};
  t.snap.start_seq = 77;
  t.stamp = {.origin = 2, .seq = 301, .dep = {0, 16'384, 5}};
  return t;
}

store::Version fixed_version() {
  store::Version v;
  v.writer = {1, 200};
  v.pidx = 129;
  v.commit_time = 987'654'321;
  v.stamp = {.origin = 1, .seq = 200, .dep = {3, 4}};
  return v;
}

/// One named hex line per encoded value, in a fixed order.
std::vector<std::pair<std::string, std::string>> messages() {
  const auto txn = std::make_shared<const core::TxnRecord>(fixed_txn());
  auto mc = std::make_shared<McastMsg>();
  mc->id = 1ULL << 33;
  mc->origin = 2;
  mc->dests = {0, 2};
  mc->proposers = {2};
  mc->bytes = 480;
  mc->txn = txn;
  const McastPtr m = mc;
  const auto version = std::make_shared<const store::Version>(fixed_version());
  const auto stamp =
      std::make_shared<const versioning::Stamp>(fixed_version().stamp);
  const std::vector<std::pair<std::string, Msg>> msgs = {
      {"msg.vote", VoteMsg{txn, true}},
      {"msg.decision", DecisionMsg{txn, false}},
      {"msg.paxos2a", Paxos2aMsg{txn, true}},
      {"msg.paxos2b", Paxos2bMsg{txn, 1, false}},
      {"msg.read_request", ReadRequestMsg{txn, 130, 5}},
      {"msg.read_reply", ReadReplyMsg{6, true, version}},
      {"msg.read_reply_initial", ReadReplyMsg{7, true, nullptr}},
      {"msg.propagate", PropagateMsg{stamp}},
      {"msg.skeen_step1", SkeenStep1{m}},
      {"msg.skeen_proposal", SkeenProposal{1ULL << 33, 40, 2}},
      {"msg.skeen_retry", SkeenRetry{m}},
      {"msg.skeen_final_key", SkeenFinalKey{1ULL << 33, 41, 0}},
      {"msg.skeen_witness", SkeenWitness{1ULL << 33, true, false}},
      {"msg.ab_submit", AbSubmit{m}},
      {"msg.ab_sequenced", AbSequenced{m, 1000}},
      {"msg.ab_ack", AbAck{1000}},
      {"msg.rm_deliver", RmDeliver{m}},
  };
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, msg] : msgs) out.emplace_back(name, hex(msg_bytes(msg)));

  const versioning::Stamp s = fixed_txn().stamp;
  out.emplace_back("stamp", hex(bytes_of(s, [](Writer& w, const auto& v) {
                     encode_stamp(w, v);
                   })));
  const versioning::TxnSnapshot snap = fixed_txn().snap;
  out.emplace_back("snapshot", hex(bytes_of(snap, [](Writer& w, const auto& v) {
                     encode_snapshot(w, v);
                   })));
  out.emplace_back("txn", hex(bytes_of(*txn, [](Writer& w, const auto& v) {
                     encode_txn(w, v, wire::kPayload);
                   })));
  out.emplace_back("version", hex(bytes_of(*version, [](Writer& w,
                                                        const auto& v) {
                     encode_version(w, v);
                   })));
  out.emplace_back("control",
                   hex(bytes_of(ControlMsg{1, 2}, [](Writer& w, const auto& v) {
                     encode_control(w, v);
                   })));
  out.emplace_back("client_hello", hex(bytes_of(
                       ClientHelloMsg{1, 2}, [](Writer& w, const auto& v) {
                         encode_client_hello(w, v);
                       })));
  out.emplace_back("client_welcome",
                   hex(bytes_of(ClientWelcomeMsg{1ULL << 40, 256, 1, "P-Store"},
                                [](Writer& w, const auto& v) {
                                  encode_client_welcome(w, v);
                                })));
  out.emplace_back(
      "client_req",
      hex(bytes_of(ClientReqMsg{99, ClientOp::kStored, 0, 0, {1, 2, 300}, {300}},
                   [](Writer& w, const auto& v) { encode_client_req(w, v); })));
  out.emplace_back(
      "client_resp",
      hex(bytes_of(ClientRespMsg{99, ClientOp::kStored, true, 17, 64},
                   [](Writer& w, const auto& v) { encode_client_resp(w, v); })));
  out.emplace_back("pushback", hex(bytes_of(PushbackMsg{true, 4096},
                                            [](Writer& w, const auto& v) {
                                              encode_pushback(w, v);
                                            })));
  const std::vector<Bytes> items = {msg_bytes(VoteMsg{txn, true}),
                                    msg_bytes(AbAck{1000})};
  out.emplace_back("batch", hex(bytes_of(items, [](Writer& w, const auto& v) {
                     encode_batch(w, v);
                   })));
  return out;
}

/// A body as a Reactor puts it on a socket: length prefix, then the body.
Bytes framed(Bytes body) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const timeval limit{5, 0};
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  Bytes got(body.size() + 4);
  {
    front::Reactor reactor;
    const int conn = reactor.add_connection(sv[0]);
    reactor.start();
    reactor.send_frame(conn, std::move(body));
    std::size_t have = 0;
    while (have < got.size()) {
      const ssize_t n = ::read(sv[1], got.data() + have, got.size() - have);
      if (n <= 0) break;
      have += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(have, got.size());
    reactor.stop();
  }
  ::close(sv[1]);
  return got;
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::vector<std::pair<std::string, std::string>> all_vectors() {
  auto out = messages();

  out.emplace_back(
      "frame", hex(framed(msg_bytes(AbAck{1000}))));

  front::HistoryDumpHeader hdr;
  hdr.protocol = "P-Store";
  hdr.criterion = "SER";
  hdr.sites = 3;
  hdr.replication = 1;
  hdr.objects = 12'288;
  hdr.partitions_per_site = 2;
  hdr.self = 1;
  front::HistoryLogWriter hist(hdr);
  core::TxnRecord aborted = fixed_txn();
  aborted.id = {1, 5};
  hist.add_txn(fixed_txn(), true, 2'000'000);
  hist.add_txn(aborted, false, 2'500'000);
  hist.add_install({.obj = 130, .writer = {2, 300}, .pidx = 7, .site = 1,
                    .time = 1'900'000});
  const std::string path = ::testing::TempDir() + "codec_golden_history.bin";
  EXPECT_TRUE(hist.write_file(path));
  out.emplace_back("history_dump", hex(read_file(path)));
  const auto dump = front::read_history_dump(path);
  std::remove(path.c_str());
  EXPECT_TRUE(dump.has_value());
  if (dump) {
    EXPECT_TRUE(dump->header.compatible(hdr));
    EXPECT_EQ(dump->header.self, hdr.self);
    EXPECT_EQ(dump->txns.size(), 2u);
    EXPECT_EQ(dump->installs.size(), 1u);
  }

  auto view = std::make_shared<const core::MembershipView>(
      core::MembershipView{4, {0, 1, 3}});
  const auto txn = std::make_shared<const core::TxnRecord>(fixed_txn());
  using Kind = store::WalRecord::Kind;
  const std::vector<store::WalRecord> records = {
      {Kind::kDeliver, {2, 300}, false, 3, txn},
      {Kind::kVote, {2, 300}, true, 3, txn},
      {Kind::kDecision, {2, 300}, true, 3, nullptr},
      {Kind::kReconfigPrepare, {0, 9}, false, 4, view},
      {Kind::kReconfigCommit, {0, 9}, true, 4, view},
      {Kind::kReconfigAbort, {0, 10}, false, 5, nullptr},
  };
  const Bytes wal = store::serialize_records(records);
  out.emplace_back("wal", hex(wal));
  bool torn = true;
  const auto replayed = store::deserialize_records(wal, &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(replayed.size(), records.size());
  for (std::size_t i = 0; i < replayed.size() && i < records.size(); ++i) {
    EXPECT_EQ(replayed[i].kind, records[i].kind);
    EXPECT_EQ(replayed[i].txn, records[i].txn);
    EXPECT_EQ(replayed[i].flag, records[i].flag);
    EXPECT_EQ(replayed[i].epoch, records[i].epoch);
    EXPECT_EQ(replayed[i].payload != nullptr, records[i].payload != nullptr);
  }
  return out;
}

TEST(CodecGolden, EveryFormatMatchesItsRecordedBytes) {
  std::ostringstream text;
  for (const auto& [name, hexed] : all_vectors())
    text << name << ' ' << hexed << '\n';

  if (std::getenv("GDUR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << text.str();
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  std::ifstream f(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden " << kGoldenPath
                        << " (run with GDUR_UPDATE_GOLDEN=1 to create)";
  std::stringstream want;
  want << f.rdbuf();
  // Line by line, so a mismatch names the format that changed.
  std::istringstream got_lines(text.str());
  std::istringstream want_lines(want.str());
  std::string got_line;
  std::string want_line;
  while (std::getline(want_lines, want_line)) {
    ASSERT_TRUE(std::getline(got_lines, got_line)) << "missing: " << want_line;
    EXPECT_EQ(got_line, want_line);
  }
  EXPECT_FALSE(std::getline(got_lines, got_line)) << "extra: " << got_line;
}

}  // namespace
}  // namespace gdur::net::codec

// Wire codec — the serialization scaffolding of the communication layer.
//
// The simulator ships payloads by pointer, but message *sizes* drive both
// transmission delay and (un)marshaling CPU cost, so they must be honest.
// This codec defines the actual wire format (varint-compressed, like the
// paper's Java implementation's hand-rolled externalization), provides
// encode/decode for every protocol message, and is what net::wire's sizing
// helpers are validated against in tests. Encoding is also exercised for
// real in the persistence layer's write-ahead log.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "core/transaction.h"
#include "net/msg.h"
#include "store/mv_store.h"

namespace gdur::net::codec {

/// Append-only byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 variable-length unsigned integer.
  void varint(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  /// Moves the buffer out (zero-copy handoff to Reactor::send_frame); the
  /// writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential byte source. Reads return nullopt on malformed/truncated
/// input instead of throwing.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::uint64_t> varint();
  std::optional<std::int64_t> i64();
  std::optional<std::string> str();

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

// --- protocol message encodings ---------------------------------------------

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_stamp(Writer& w, const versioning::Stamp& s);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<versioning::Stamp> decode_stamp(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_snapshot(Writer& w, const versioning::TxnSnapshot& s);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<versioning::TxnSnapshot> decode_snapshot(Reader& r);

/// Full termination record: ids, read/write sets, read entries, snapshot,
/// stamp. After-values are represented by their size only (they carry no
/// information the simulator uses), encoded as a length marker per write.
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_txn(Writer& w, const core::TxnRecord& t,
                std::uint64_t payload_bytes_per_write);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<core::TxnRecord> decode_txn(Reader& r);

/// Exact wire size of a termination message under this codec.
std::uint64_t encoded_txn_size(const core::TxnRecord& t,
                               std::uint64_t payload_bytes_per_write);

// --- live-runtime frames -----------------------------------------------------
//
// In the simulator payloads travel by pointer; the live runtime (src/live)
// ships every inter-site message (net::Msg) as real bytes, framed as one
// type tag followed by the body encoded below. Every message round-trips
// byte-exactly and malformed input decodes to nullopt (tests/test_codec).

/// Frame type tag — first byte of every live frame. An inter-site message
/// is tagged kMsgBase + its index in net::Msg; 30 and 31 are link-level
/// frames; 32+ is the client (front-door) protocol.
enum class MsgType : std::uint8_t {
  kMsgBase = 1,         // body: encode_msg
  kControl = 30,        // body: ControlMsg (connection handshake)
  kBatch = 31,          // body: coalesced inner frames (encode_batch)
  kClientHello = 32,    // body: ClientHelloMsg (client -> server)
  kClientWelcome = 33,  // body: ClientWelcomeMsg (server -> client)
  kClientReq = 34,      // body: ClientReqMsg
  kClientResp = 35,     // body: ClientRespMsg
  kPushback = 36,       // body: PushbackMsg (server -> client)
};
static_assert(static_cast<std::size_t>(MsgType::kMsgBase) +
                      std::variant_size_v<Msg> <=
                  static_cast<std::size_t>(MsgType::kControl),
              "net::Msg tags overlap the link-level frames");

/// Control-plane message (live connection handshake: kind 1 = hello, arg =
/// the connecting site's id).
struct ControlMsg {
  std::uint64_t kind = 0;
  std::uint64_t arg = 0;
};

// --- client (front-door) protocol --------------------------------------------
//
// A GdurClient connection speaks these frames against front::FrontServer:
// hello/welcome establishes a session pinned to one site, then pipelined
// requests carry a client-chosen cookie echoed in the response. Pushback
// frames are the server's explicit backpressure signal (cert queues past a
// watermark): clients stop submitting until the resume frame.

/// Operations a client request can carry. kStored runs a one-shot stored
/// transaction (all reads then all writes then commit) entirely server-side
/// — one round trip instead of 2 + reads + writes.
enum class ClientOp : std::uint8_t {
  kBegin = 1,
  kRead = 2,
  kWrite = 3,
  kCommit = 4,
  kStored = 5,
};

/// First client frame on a connection. `site_hint` requests a coordinator
/// site (kNoSite = server picks one).
struct ClientHelloMsg {
  std::uint64_t version = 1;
  SiteId site_hint = kNoSite;
};

/// Server's session grant: the session id, the agreed per-session in-flight
/// window, the coordinator site and its protocol name.
struct ClientWelcomeMsg {
  std::uint64_t session = 0;
  std::uint32_t window = 0;
  SiteId site = 0;
  std::string protocol;
};

/// One pipelined request. `txn` is the server-issued transaction handle
/// (from the kBegin response); `obj` is the object of kRead/kWrite;
/// `reads`/`writes` are the footprint of a kStored transaction.
struct ClientReqMsg {
  std::uint64_t cookie = 0;
  ClientOp op = ClientOp::kBegin;
  std::uint64_t txn = 0;
  ObjectId obj = 0;
  std::vector<ObjectId> reads;
  std::vector<ObjectId> writes;
};

/// Response to one request, correlated by cookie. `ok` is the operation
/// verdict (for kCommit/kStored: committed). `txn` echoes the handle
/// (kBegin: the newly issued one). `payload_bytes` sizes the after-value a
/// kRead returns, same length-marker convention as read replies.
struct ClientRespMsg {
  std::uint64_t cookie = 0;
  ClientOp op = ClientOp::kBegin;
  bool ok = false;
  std::uint64_t txn = 0;
  std::uint64_t payload_bytes = 0;
};

/// Server backpressure: stop (or resume) submitting on this session.
/// `depth` is the certification-queue depth that tripped the watermark.
struct PushbackMsg {
  bool stop = false;
  std::uint64_t depth = 0;
};

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_version(Writer& w, const store::Version& v);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<store::Version> decode_version(Reader& r);

/// One inter-site message: its tag (kMsgBase + index) and body. A
/// transaction travels as its receiver needs it: votes, decisions and Paxos
/// rounds carry only the id, a read request only the snapshot, multicast
/// steps the whole record. Decoding an id or a snapshot yields a stub
/// record holding just that.
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_msg(Writer& w, const Msg& m);
/// Reads one tagged inter-site message; nullopt on any other tag or a
/// malformed body.
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<Msg> decode_msg(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_control(Writer& w, const ControlMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ControlMsg> decode_control(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_hello(Writer& w, const ClientHelloMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientHelloMsg> decode_client_hello(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_welcome(Writer& w, const ClientWelcomeMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientWelcomeMsg> decode_client_welcome(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_req(Writer& w, const ClientReqMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientReqMsg> decode_client_req(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_resp(Writer& w, const ClientRespMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientRespMsg> decode_client_resp(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_pushback(Writer& w, const PushbackMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<PushbackMsg> decode_pushback(Reader& r);

/// Coalesced frame (vote/ack batching): `frames` are complete tagged frame
/// bodies (type byte + payload) sharing one wire frame and one length
/// prefix. Body layout: varint count, then per item varint len + bytes.
/// Nested batches are rejected on decode, as are empty items.
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_batch(Writer& w,
                  const std::vector<std::vector<std::uint8_t>>& frames);
std::optional<std::vector<std::vector<std::uint8_t>>> decode_batch(Reader& r);

}  // namespace gdur::net::codec

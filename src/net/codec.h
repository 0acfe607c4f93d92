// Wire codec — the serialization scaffolding of the communication layer.
//
// The simulator ships payloads by pointer, but message *sizes* drive both
// transmission delay and (un)marshaling CPU cost, so they must be honest.
// This codec defines the actual byte formats (varint-compressed, like the
// paper's Java implementation's hand-rolled externalization) — every
// inter-site message, the front-door frames, the history dumps and the WAL
// records — and is what net::wire's sizing helpers are validated against
// in tests.
//
// Each format is written down once, as a fields() list (see "Field lists"
// below) that drives both encode() and decode().
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/analysis_annotations.h"
#include "core/transaction.h"
#include "net/msg.h"
#include "net/wire.h"
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
  void zeros(std::size_t n) { buf_.resize(buf_.size() + n); }
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  /// Moves the buffer out (zero-copy handoff to Reactor::send_frame); the
  /// writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential byte source over a borrowed buffer. Reads return nullopt on
/// malformed/truncated input instead of throwing.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::uint64_t> varint();
  std::optional<std::int64_t> i64();
  std::optional<std::string> str();
  /// The next `n` bytes, in place.
  std::optional<std::span<const std::uint8_t>> bytes(std::uint64_t n);

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// --- frame vocabulary --------------------------------------------------------
//
// In the simulator payloads travel by pointer; the live runtime (src/live)
// ships every inter-site message (net::Msg) as real bytes, framed as one
// type tag followed by the body. Every message round-trips byte-exactly and
// malformed input decodes to nullopt (tests/test_codec).

/// Frame type tag — first byte of every live frame. An inter-site message
/// is tagged kMsgBase + its index in net::Msg (the variant encoding); 30 and
/// 31 are link-level frames; 32+ is the client (front-door) protocol.
enum class MsgType : std::uint8_t {
  kMsgBase = 1,         // body: the rest of encode(net::Msg)
  kControl = 30,        // body: ControlMsg (connection handshake)
  kBatch = 31,          // body: Batch (coalesced inner frames)
  kClientHello = 32,    // body: ClientHelloMsg (client -> server)
  kClientWelcome = 33,  // body: ClientWelcomeMsg (server -> client)
  kClientReq = 34,      // body: ClientReqMsg
  kClientResp = 35,     // body: ClientRespMsg
  kPushback = 36,       // body: PushbackMsg (server -> client)
};
static_assert(static_cast<int>(MsgType::kMsgBase) == 1,
              "a variant field is tagged 1 + its alternative's index");
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

/// Coalesced frame (vote/ack batching): complete tagged frame bodies (type
/// byte + payload) sharing one wire frame and one length prefix. A batch
/// holds 1 to 2^20 items, none empty and none itself a batch (a recursion
/// hazard).
using Batch = std::vector<std::vector<std::uint8_t>>;

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
/// window (at most kMaxWindow), the coordinator site and its protocol name.
struct ClientWelcomeMsg {
  static constexpr std::uint32_t kMaxWindow = 1u << 20;
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

// --- field lists -------------------------------------------------------------
//
// A format is a `fields(f, value)` overload naming the value's fields in
// wire order. The list is generic over the visitor `f`: Enc writes the
// fields of a const value, Dec reads them into a fresh one, so the two
// directions cannot drift apart. Lists for the formats of other layers
// (history dumps, WAL bodies) sit next to those formats, in this namespace,
// where the visitors find them.
//
// A field's type picks its encoding:
//   bool                 one byte, 0 or 1 (any other byte is malformed)
//   enum                 one byte (the list bounds its range with check())
//   std::uint32_t        4 bytes little-endian (SiteId, PartitionId)
//   std::uint64_t        varint
//   std::int64_t         8 bytes little-endian (SimTime)
//   std::string, bytes   varint length, then the bytes
//   other containers     varint count, then each element
//   shared_ptr<const T>  T (the pointer must be set)
//   std::variant         one tag byte, 1 + the alternative's index, then it
//   anything else        its own fields() list
// and a list spells out the rest:
//   f.varint(x)          a narrower integer as a varint
//   f.opt(p[, as<T>])    a presence byte, then *p if set (T for an erased
//                        pointer)
//   f.stub(p, &T::m)     only member m of *p; decodes to a stub record
//   f.each(c, fn)        a container whose elements fn() codes
//   f.payload()          an after-value: a length marker, then that many
//                        zero bytes (the format's width; decode skips them)
//   f.records(cs...)     tagged records to the end of the input: every
//                        element of the i-th container as tag i+1, then it
//   f.check(pred)        decode fails unless pred() holds
// Decoding rejects what encoding cannot produce: short input, bad booleans,
// a varint too wide for its field, element counts the bytes left cannot
// hold, and anything check() refuses.

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Names the record type behind an erased pointer: f.opt(p, as<T>).
template <class T>
inline constexpr std::type_identity<T> as{};

struct Enc {
  Writer& w;
  /// Width of each after-value: wire::kPayload on the wire and in history
  /// dumps, 0 in the WAL.
  std::uint64_t payload_width = wire::kPayload;

  void operator()(bool v) { w.u8(v ? 1 : 0); }
  void operator()(std::uint32_t v) { w.u32(v); }
  void operator()(std::uint64_t v) { w.varint(v); }
  void operator()(std::int64_t v) { w.i64(v); }
  void operator()(const std::string& v) { w.str(v); }
  void operator()(const std::vector<std::uint8_t>& v) {
    w.varint(v.size());
    w.bytes(v.data(), v.size());
  }
  template <class T>
  void operator()(const std::shared_ptr<T>& p) {
    (*this)(*p);
  }
  template <class... Ts>
  void operator()(const std::variant<Ts...>& v) {
    w.u8(static_cast<std::uint8_t>(1 + v.index()));
    std::visit([this](const auto& x) { (*this)(x); }, v);
  }
  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      w.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::ranges::range<T>) {
      each(v, [this](const auto& x) { (*this)(x); });
    } else {
      fields(*this, v);
    }
  }

  template <std::integral T>
  void varint(T v) {
    w.varint(static_cast<std::uint64_t>(v));
  }
  template <class P, class T = std::remove_const_t<P>>
  void opt(const std::shared_ptr<P>& p, std::type_identity<T> = {}) {
    (*this)(p != nullptr);
    if (p != nullptr) (*this)(*static_cast<const T*>(p.get()));
  }
  template <class T, class M>
  void stub(const std::shared_ptr<const T>& p, M T::*member) {
    (*this)((*p).*member);
  }
  template <class C, class F>
  void each(const C& c, F&& elem) {
    w.varint(std::ranges::size(c));
    for (const auto& x : c) elem(x);
  }
  void payload() {
    w.varint(payload_width);
    w.zeros(payload_width);
  }
  template <class... Cs>
  void records(const Cs&... cs) {
    std::uint8_t tag = 0;
    (
        [&] {
          ++tag;
          for (const auto& x : cs) {
            w.u8(tag);
            (*this)(x);
          }
        }(),
        ...);
  }
  template <class P>
  void check(P&& /*pred*/) {}
};

/// Any missing or malformed field clears `ok`; the value is then dropped.
/// (Reads after a failure stay bounds-checked, and loops stop early.)
struct Dec {
  Reader& r;
  bool ok = true;

  template <class T>
  void put(T& v, std::optional<T> x) {
    if (x) {
      v = *std::move(x);
    } else {
      ok = false;
    }
  }
  void operator()(bool& v) {
    const auto b = r.u8();
    if (b && *b <= 1) {
      v = *b != 0;
    } else {
      ok = false;
    }
  }
  void operator()(std::uint32_t& v) { put(v, r.u32()); }
  void operator()(std::uint64_t& v) { put(v, r.varint()); }
  void operator()(std::int64_t& v) { put(v, r.i64()); }
  void operator()(std::string& v) { put(v, r.str()); }
  void operator()(std::vector<std::uint8_t>& v) {
    const auto n = r.varint();
    const auto b = n ? r.bytes(*n) : std::nullopt;
    if (b) {
      v.assign(b->begin(), b->end());
    } else {
      ok = false;
    }
  }
  template <class T>
  void operator()(std::shared_ptr<const T>& p) {
    auto x = std::make_shared<T>();
    (*this)(*x);
    p = std::move(x);
  }
  template <class... Ts>
  void operator()(std::variant<Ts...>& v) {
    const auto tag = r.u8();
    if (!tag || *tag == 0 || *tag > sizeof...(Ts)) {
      ok = false;
      return;
    }
    alternative(v, *tag - 1u, std::index_sequence_for<Ts...>{});
  }
  template <class T>
  void operator()(T& v) {
    if constexpr (std::is_enum_v<T>) {
      const auto b = r.u8();
      if (b) {
        v = static_cast<T>(*b);
      } else {
        ok = false;
      }
    } else if constexpr (std::ranges::range<T>) {
      each(v, [this](auto& x) { (*this)(x); });
    } else {
      fields(*this, v);
    }
  }

  template <std::integral T>
  void varint(T& v) {
    const auto x = r.varint();
    if (x && *x <= std::numeric_limits<std::make_unsigned_t<T>>::max()) {
      v = static_cast<T>(*x);
    } else {
      ok = false;
    }
  }
  template <class P, class T = std::remove_const_t<P>>
  void opt(std::shared_ptr<P>& p, std::type_identity<T> = {}) {
    bool present = false;
    (*this)(present);
    if (!ok || !present) return;
    auto x = std::make_shared<T>();
    (*this)(*x);
    p = std::move(x);
  }
  template <class T, class M>
  void stub(std::shared_ptr<const T>& p, M T::*member) {
    auto x = std::make_shared<T>();
    (*this)((*x).*member);
    p = std::move(x);
  }
  template <class C, class F>
  void each(C& c, F&& elem) {
    using V = std::ranges::range_value_t<C>;
    const auto n = r.varint();
    // Every element takes at least one byte: a count the rest of the input
    // cannot hold is corrupt, and preallocation never exceeds the bytes
    // left.
    if (!n || *n > r.remaining()) {
      ok = false;
      return;
    }
    if constexpr (requires { c.reserve(std::size_t{}); })
      c.reserve(std::min<std::size_t>(*n, r.remaining() / sizeof(V)));
    for (std::uint64_t i = 0; i < *n && ok; ++i) {
      if constexpr (requires { c.emplace_back(); }) {
        elem(c.emplace_back());
      } else {
        V x{};
        elem(x);
        c.insert(x);
      }
    }
  }
  void payload() {
    const auto n = r.varint();
    if (!n || !r.bytes(*n)) ok = false;
  }
  template <class... Cs>
  void records(Cs&... cs) {
    while (ok && !r.exhausted()) {
      const auto tag = r.u8();
      std::uint8_t i = 0;
      bool known = false;
      (
          [&] {
            if (tag == ++i) {
              known = true;
              (*this)(cs.emplace_back());
            }
          }(),
          ...);
      if (!known) ok = false;
    }
  }
  template <class P>
  void check(P&& pred) {
    if (ok && !pred()) ok = false;
  }

 private:
  template <class V, std::size_t... I>
  void alternative(V& v, std::size_t index, std::index_sequence<I...>) {
    ((index == I ? (*this)(v.template emplace<I>()) : void()), ...);
  }
};

/// A format's fields() list if it has one, else the encoding of its type.
template <class F, class T>
void visit_fields(F& f, T& v) {
  if constexpr (requires { fields(f, v); }) {
    fields(f, v);
  } else {
    f(v);
  }
}

/// Appends `v` in its format; each after-value is `payload_width` bytes.
template <class T>
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode(Writer& w, const T& v,
            std::uint64_t payload_width = wire::kPayload) {
  Enc e{w, payload_width};
  visit_fields(e, v);
}

/// Reads one `T`; nullopt on any malformed or missing byte.
template <class T>
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<T> decode(Reader& r) {
  T v{};
  Dec d{r};
  visit_fields(d, v);
  if (!d.ok) return std::nullopt;
  return v;
}

/// Exact encoded size of `v`.
template <class T>
std::uint64_t encoded_size(const T& v,
                           std::uint64_t payload_width = wire::kPayload) {
  Writer w;
  encode(w, v, payload_width);
  return w.size();
}

// --- replication records ---------------------------------------------------

void fields(auto& f, Is<TxnId> auto& id) {
  f(id.coord);
  f(id.seq);
}
void fields(auto& f, Is<versioning::Stamp> auto& s) {
  f(s.origin);
  f(s.seq);
  f(s.dep);
}
void fields(auto& f, Is<versioning::TxnSnapshot> auto& s) {
  f(s.vts);
  f(s.floor);
  f(s.ceil);
  f(s.start_seq);
}
void fields(auto& f, Is<core::ReadEntry> auto& e) {
  f(e.obj);
  f(e.part);
  f(e.writer);
  f(e.pidx);
}
/// Full termination record: ids, read/write sets, read entries, snapshot,
/// stamp. After-values are represented by their size only (they carry no
/// information the simulator uses): one payload() per write.
void fields(auto& f, Is<core::TxnRecord> auto& t) {
  f(t.id);
  f.varint(t.epoch);
  f(t.begin_time);
  f(t.submit_time);
  f(t.rs);
  f.each(t.ws, [&f](auto& o) {
    f(o);
    f.payload();
  });
  f(t.reads);
  f(t.snap);
  f(t.stamp);
}
void fields(auto& f, Is<store::Version> auto& v) {
  f(v.writer);
  f(v.pidx);
  f(v.commit_time);
  f(v.stamp);
}

// --- inter-site messages (net::Msg) ------------------------------------------
//
// A transaction travels as its receiver needs it: votes, decisions and Paxos
// rounds carry only the id, a read request only the snapshot, multicast
// steps the whole record. Decoding an id or a snapshot yields a stub record
// holding just that.

void fields(auto& f, Is<McastMsg> auto& m) {
  f(m.id);
  f(m.origin);
  f(m.dests);
  f(m.proposers);
  f(m.bytes);
  f(m.txn);
}
void fields(auto& f, Is<VoteMsg> auto& m) {
  f.stub(m.txn, &core::TxnRecord::id);
  f(m.vote);
}
void fields(auto& f, Is<DecisionMsg> auto& m) {
  f.stub(m.txn, &core::TxnRecord::id);
  f(m.commit);
}
void fields(auto& f, Is<Paxos2aMsg> auto& m) {
  f.stub(m.txn, &core::TxnRecord::id);
  f(m.vote);
}
void fields(auto& f, Is<Paxos2bMsg> auto& m) {
  f.stub(m.txn, &core::TxnRecord::id);
  f(m.participant);
  f(m.vote);
}
void fields(auto& f, Is<ReadRequestMsg> auto& m) {
  f(m.req);
  f(m.obj);
  f.stub(m.txn, &core::TxnRecord::snap);
}
/// The chosen version's after-value rides along; the implicit initial
/// version puts none on the wire.
void fields(auto& f, Is<ReadReplyMsg> auto& m) {
  f(m.req);
  f(m.ok);
  f.opt(m.version);
  if (m.version != nullptr) f.payload();
}
void fields(auto& f, Is<PropagateMsg> auto& m) { f(m.stamp); }
void fields(auto& f, Is<SkeenStep1> auto& m) { f(m.msg); }
void fields(auto& f, Is<SkeenProposal> auto& m) {
  f(m.id);
  f(m.ts);
  f(m.site);
}
void fields(auto& f, Is<SkeenRetry> auto& m) { f(m.msg); }
void fields(auto& f, Is<SkeenFinalKey> auto& m) {
  f(m.id);
  f(m.ts);
  f(m.site);
}
void fields(auto& f, Is<SkeenWitness> auto& m) {
  f(m.id);
  f(m.delivery);
  f(m.echo);
}
void fields(auto& f, Is<AbSubmit> auto& m) { f(m.msg); }
void fields(auto& f, Is<AbSequenced> auto& m) {
  f(m.msg);
  f(m.seq);
}
void fields(auto& f, Is<AbAck> auto& m) { f(m.seq); }
void fields(auto& f, Is<RmDeliver> auto& m) { f(m.msg); }

// --- link and front-door frames ----------------------------------------------

void fields(auto& f, Is<ControlMsg> auto& m) {
  f(m.kind);
  f(m.arg);
}
void fields(auto& f, Is<Batch> auto& b) {
  f(b);
  f.check([&b] {
    return !b.empty() && b.size() <= (1u << 20) &&
           std::ranges::none_of(b, [](const auto& item) {
             return item.empty() ||
                    item[0] == static_cast<std::uint8_t>(MsgType::kBatch);
           });
  });
}
void fields(auto& f, Is<ClientHelloMsg> auto& m) {
  f(m.version);
  f(m.site_hint);
}
void fields(auto& f, Is<ClientWelcomeMsg> auto& m) {
  f(m.session);
  f.varint(m.window);
  f.check([&m] { return m.window <= ClientWelcomeMsg::kMaxWindow; });
  f(m.site);
  f(m.protocol);
}
[[nodiscard]] constexpr bool known(ClientOp op) {
  return op >= ClientOp::kBegin && op <= ClientOp::kStored;
}
void fields(auto& f, Is<ClientReqMsg> auto& m) {
  f(m.cookie);
  f(m.op);
  f.check([&m] { return known(m.op); });
  f(m.txn);
  f(m.obj);
  f(m.reads);
  f(m.writes);
}
void fields(auto& f, Is<ClientRespMsg> auto& m) {
  f(m.cookie);
  f(m.op);
  f.check([&m] { return known(m.op); });
  f(m.ok);
  f(m.txn);
  f(m.payload_bytes);
}
void fields(auto& f, Is<PushbackMsg> auto& m) {
  f(m.stop);
  f(m.depth);
}

}  // namespace gdur::net::codec

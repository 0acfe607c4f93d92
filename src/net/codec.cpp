#include "net/codec.h"

#include <algorithm>
#include <concepts>
#include <cstring>
#include <type_traits>

namespace gdur::net::codec {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Writer::str(const std::string& s) {
  varint(s.size());
  bytes(s.data(), s.size());
}

std::optional<std::uint8_t> Reader::u8() {
  if (pos_ >= buf_.size()) return std::nullopt;
  return buf_[pos_++];
}

std::optional<std::uint32_t> Reader::u32() {
  if (pos_ + 4 > buf_.size()) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> Reader::u64() {
  if (pos_ + 8 > buf_.size()) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < buf_.size() && shift < 64) {
    const std::uint8_t b = buf_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Reader::i64() {
  auto v = u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<std::string> Reader::str() {
  const auto n = varint();
  if (!n || pos_ + *n > buf_.size()) return std::nullopt;
  std::string out(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(*n));
  pos_ += *n;
  return out;
}

// ---------------------------------------------------------------------------

void encode_stamp(Writer& w, const versioning::Stamp& s) {
  w.u32(s.origin);
  w.varint(s.seq);
  w.varint(s.dep.size());
  for (auto d : s.dep) w.varint(d);
}

std::optional<versioning::Stamp> decode_stamp(Reader& r) {
  versioning::Stamp s;
  const auto origin = r.u32();
  const auto seq = r.varint();
  const auto n = r.varint();
  if (!origin || !seq || !n) return std::nullopt;
  s.origin = *origin;
  s.seq = *seq;
  // Clamp preallocation by the bytes left: a corrupted count must not
  // trigger a huge allocation before the per-element reads reject it.
  s.dep.reserve(static_cast<std::size_t>(std::min(*n, std::uint64_t{r.remaining()})));
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto d = r.varint();
    if (!d) return std::nullopt;
    s.dep.push_back(*d);
  }
  return s;
}

namespace {
void encode_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.varint(v.size());
  for (auto x : v) w.varint(x);
}

std::optional<std::vector<std::uint64_t>> decode_u64_vec(Reader& r) {
  const auto n = r.varint();
  if (!n) return std::nullopt;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(std::min(*n, std::uint64_t{r.remaining()})));
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto x = r.varint();
    if (!x) return std::nullopt;
    out.push_back(*x);
  }
  return out;
}
}  // namespace

void encode_snapshot(Writer& w, const versioning::TxnSnapshot& s) {
  encode_u64_vec(w, s.vts);
  encode_u64_vec(w, s.floor);
  encode_u64_vec(w, s.ceil);
  w.varint(s.start_seq);
}

std::optional<versioning::TxnSnapshot> decode_snapshot(Reader& r) {
  versioning::TxnSnapshot s;
  auto vts = decode_u64_vec(r);
  auto floor = decode_u64_vec(r);
  auto ceil = decode_u64_vec(r);
  auto start = r.varint();
  if (!vts || !floor || !ceil || !start) return std::nullopt;
  s.vts = *std::move(vts);
  s.floor = *std::move(floor);
  s.ceil = *std::move(ceil);
  s.start_seq = *start;
  return s;
}

void encode_txn(Writer& w, const core::TxnRecord& t,
                std::uint64_t payload_bytes_per_write) {
  w.u32(t.id.coord);
  w.varint(t.id.seq);
  w.varint(t.epoch);
  w.i64(t.begin_time);
  w.i64(t.submit_time);
  w.varint(t.rs.size());
  for (ObjectId o : t.rs) w.varint(o);
  w.varint(t.ws.size());
  for (ObjectId o : t.ws) {
    w.varint(o);
    // After-value: length marker + opaque payload bytes.
    w.varint(payload_bytes_per_write);
    for (std::uint64_t i = 0; i < payload_bytes_per_write; ++i) w.u8(0);
  }
  w.varint(t.reads.size());
  for (const auto& rd : t.reads) {
    w.varint(rd.obj);
    w.u32(rd.part);
    w.u32(rd.writer.coord);
    w.varint(rd.writer.seq);
    w.varint(rd.pidx);
  }
  encode_snapshot(w, t.snap);
  encode_stamp(w, t.stamp);
}

std::optional<core::TxnRecord> decode_txn(Reader& r) {
  core::TxnRecord t;
  const auto coord = r.u32();
  const auto seq = r.varint();
  const auto epoch = r.varint();
  const auto begin = r.i64();
  const auto submit = r.i64();
  if (!coord || !seq || !epoch || !begin || !submit) return std::nullopt;
  t.id = {*coord, *seq};
  t.epoch = static_cast<EpochId>(*epoch);
  t.begin_time = *begin;
  t.submit_time = *submit;

  const auto nr = r.varint();
  if (!nr) return std::nullopt;
  for (std::uint64_t i = 0; i < *nr; ++i) {
    const auto o = r.varint();
    if (!o) return std::nullopt;
    t.rs.insert(*o);
  }
  const auto nw = r.varint();
  if (!nw) return std::nullopt;
  for (std::uint64_t i = 0; i < *nw; ++i) {
    const auto o = r.varint();
    if (!o) return std::nullopt;
    t.ws.insert(*o);
    const auto len = r.varint();
    if (!len) return std::nullopt;
    for (std::uint64_t k = 0; k < *len; ++k)
      if (!r.u8()) return std::nullopt;
  }
  const auto ne = r.varint();
  if (!ne) return std::nullopt;
  for (std::uint64_t i = 0; i < *ne; ++i) {
    core::ReadEntry e;
    const auto o = r.varint();
    const auto p = r.u32();
    const auto wc = r.u32();
    const auto wsq = r.varint();
    const auto pidx = r.varint();
    if (!o || !p || !wc || !wsq || !pidx) return std::nullopt;
    e.obj = *o;
    e.part = *p;
    e.writer = {*wc, *wsq};
    e.pidx = *pidx;
    t.reads.push_back(e);
  }
  auto snap = decode_snapshot(r);
  auto stamp = decode_stamp(r);
  if (!snap || !stamp) return std::nullopt;
  t.snap = *std::move(snap);
  t.stamp = *std::move(stamp);
  return t;
}

std::uint64_t encoded_txn_size(const core::TxnRecord& t,
                               std::uint64_t payload_bytes_per_write) {
  Writer w;
  encode_txn(w, t, payload_bytes_per_write);
  return w.size();
}

// ---------------------------------------------------------------------------
// Live-runtime message classes.
// ---------------------------------------------------------------------------

namespace {
void encode_txn_id(Writer& w, const TxnId& id) {
  w.u32(id.coord);
  w.varint(id.seq);
}

std::optional<TxnId> decode_txn_id(Reader& r) {
  const auto coord = r.u32();
  const auto seq = r.varint();
  if (!coord || !seq) return std::nullopt;
  return TxnId{*coord, *seq};
}
}  // namespace

void encode_version(Writer& w, const store::Version& v) {
  encode_txn_id(w, v.writer);
  w.varint(v.pidx);
  w.i64(v.commit_time);
  encode_stamp(w, v.stamp);
}

std::optional<store::Version> decode_version(Reader& r) {
  store::Version v;
  const auto writer = decode_txn_id(r);
  const auto pidx = r.varint();
  const auto ct = r.i64();
  auto stamp = decode_stamp(r);
  if (!writer || !pidx || !ct || !stamp) return std::nullopt;
  v.writer = *writer;
  v.pidx = *pidx;
  v.commit_time = *ct;
  v.stamp = *std::move(stamp);
  return v;
}

namespace {

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

// One field list per message drives both directions: Enc writes the fields
// of a const message, Dec reads them back into a fresh one. id() and snap()
// ship a transaction as just its identity or just its snapshot.
void fields(auto& f, Is<VoteMsg> auto& m) {
  f.id(m.txn);
  f(m.vote);
}
void fields(auto& f, Is<DecisionMsg> auto& m) {
  f.id(m.txn);
  f(m.commit);
}
void fields(auto& f, Is<Paxos2aMsg> auto& m) {
  f.id(m.txn);
  f(m.vote);
}
void fields(auto& f, Is<Paxos2bMsg> auto& m) {
  f.id(m.txn);
  f(m.participant);
  f(m.vote);
}
void fields(auto& f, Is<ReadRequestMsg> auto& m) {
  f(m.req);
  f(m.obj);
  f.snap(m.txn);
}
void fields(auto& f, Is<ReadReplyMsg> auto& m) {
  f(m.req);
  f(m.ok);
  f(m.version);
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

struct Enc {
  Writer& w;

  void operator()(bool v) { w.u8(v ? 1 : 0); }
  void operator()(SiteId v) { w.u32(v); }
  void operator()(std::uint64_t v) { w.varint(v); }
  void operator()(const std::shared_ptr<const versioning::Stamp>& s) {
    encode_stamp(w, *s);
  }
  void operator()(const std::shared_ptr<const store::Version>& v) {
    (*this)(v != nullptr);
    if (v == nullptr) return;
    encode_version(w, *v);
    // After-value: length marker + opaque payload bytes (the convention of
    // encode_txn).
    w.varint(wire::kPayload);
    for (std::uint64_t i = 0; i < wire::kPayload; ++i) w.u8(0);
  }
  void operator()(const McastPtr& m) {
    w.varint(m->id);
    w.u32(m->origin);
    sites(m->dests);
    sites(m->proposers);
    w.varint(m->bytes);
    encode_txn(w, *m->txn, wire::kPayload);
  }
  void id(const core::TxnPtr& t) { encode_txn_id(w, t->id); }
  void snap(const core::TxnPtr& t) { encode_snapshot(w, t->snap); }
  void sites(const std::vector<SiteId>& v) {
    w.varint(v.size());
    for (SiteId s : v) w.u32(s);
  }
};

/// Any missing or malformed field clears `ok`. (Reads after a failure stay
/// bounds-checked; the message is dropped either way.)
struct Dec {
  Reader& r;
  bool ok = true;

  template <class T>
  void put(T& v, const std::optional<T>& x) {
    if (x) {
      v = *x;
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
  void operator()(SiteId& v) { put(v, r.u32()); }
  void operator()(std::uint64_t& v) { put(v, r.varint()); }
  void operator()(std::shared_ptr<const versioning::Stamp>& s) {
    auto x = decode_stamp(r);
    if (x) {
      s = std::make_shared<const versioning::Stamp>(*std::move(x));
    } else {
      ok = false;
    }
  }
  void operator()(std::shared_ptr<const store::Version>& v) {
    bool present = false;
    (*this)(present);
    if (!ok || !present) return;
    auto x = decode_version(r);
    const auto len = r.varint();
    if (!x || !len || r.remaining() < *len) {
      ok = false;
      return;
    }
    for (std::uint64_t i = 0; i < *len; ++i) (void)r.u8();
    v = std::make_shared<const store::Version>(*std::move(x));
  }
  void operator()(McastPtr& p) {
    auto m = std::make_shared<McastMsg>();
    (*this)(m->id);
    (*this)(m->origin);
    sites(m->dests);
    sites(m->proposers);
    (*this)(m->bytes);
    auto t = decode_txn(r);
    if (!ok || !t) {
      ok = false;
      return;
    }
    m->txn = std::make_shared<const core::TxnRecord>(*std::move(t));
    p = std::move(m);
  }
  void id(core::TxnPtr& t) {
    auto rec = std::make_shared<core::TxnRecord>();
    put(rec->id, decode_txn_id(r));
    t = std::move(rec);
  }
  void snap(core::TxnPtr& t) {
    auto rec = std::make_shared<core::TxnRecord>();
    put(rec->snap, decode_snapshot(r));
    t = std::move(rec);
  }
  void sites(std::vector<SiteId>& v) {
    const auto n = r.varint();
    // Four bytes per site: a count the rest of the frame cannot hold is
    // corrupt, and must not drive an allocation.
    if (!n || *n > r.remaining() / 4) {
      ok = false;
      return;
    }
    v.resize(static_cast<std::size_t>(*n));
    for (SiteId& s : v) (*this)(s);
  }
};

/// Decodes the body of net::Msg alternative `kind`.
template <std::size_t I = 0>
std::optional<Msg> decode_body(std::size_t kind, Reader& r) {
  if constexpr (I == std::variant_size_v<Msg>) {
    return std::nullopt;
  } else {
    if (kind != I) return decode_body<I + 1>(kind, r);
    std::variant_alternative_t<I, Msg> m;
    Dec d{r};
    fields(d, m);
    if (!d.ok) return std::nullopt;
    return Msg{std::in_place_index<I>, std::move(m)};
  }
}

}  // namespace

void encode_msg(Writer& w, const Msg& m) {
  w.u8(static_cast<std::uint8_t>(static_cast<std::size_t>(MsgType::kMsgBase) +
                                 m.index()));
  Enc e{w};
  std::visit([&e](const auto& x) { fields(e, x); }, m);
}

std::optional<Msg> decode_msg(Reader& r) {
  const auto tag = r.u8();
  constexpr auto kBase = static_cast<std::size_t>(MsgType::kMsgBase);
  if (!tag || *tag < kBase) return std::nullopt;
  return decode_body(*tag - kBase, r);
}

void encode_control(Writer& w, const ControlMsg& m) {
  w.varint(m.kind);
  w.varint(m.arg);
}

std::optional<ControlMsg> decode_control(Reader& r) {
  const auto kind = r.varint();
  const auto arg = r.varint();
  if (!kind || !arg) return std::nullopt;
  return ControlMsg{*kind, *arg};
}

// ---------------------------------------------------------------------------
// Client (front-door) protocol.
// ---------------------------------------------------------------------------

namespace {
std::optional<ClientOp> decode_client_op(Reader& r) {
  const auto op = r.u8();
  if (!op || *op < 1 || *op > 5) return std::nullopt;
  return static_cast<ClientOp>(*op);
}
}  // namespace

void encode_client_hello(Writer& w, const ClientHelloMsg& m) {
  w.varint(m.version);
  w.u32(m.site_hint);
}

std::optional<ClientHelloMsg> decode_client_hello(Reader& r) {
  const auto version = r.varint();
  const auto site = r.u32();
  if (!version || !site) return std::nullopt;
  return ClientHelloMsg{*version, *site};
}

void encode_client_welcome(Writer& w, const ClientWelcomeMsg& m) {
  w.varint(m.session);
  w.varint(m.window);
  w.u32(m.site);
  w.str(m.protocol);
}

std::optional<ClientWelcomeMsg> decode_client_welcome(Reader& r) {
  ClientWelcomeMsg m;
  const auto session = r.varint();
  const auto window = r.varint();
  const auto site = r.u32();
  auto protocol = r.str();
  if (!session || !window || *window > (1u << 20) || !site || !protocol)
    return std::nullopt;
  m.session = *session;
  m.window = static_cast<std::uint32_t>(*window);
  m.site = *site;
  m.protocol = *std::move(protocol);
  return m;
}

void encode_client_req(Writer& w, const ClientReqMsg& m) {
  w.varint(m.cookie);
  w.u8(static_cast<std::uint8_t>(m.op));
  w.varint(m.txn);
  w.varint(m.obj);
  w.varint(m.reads.size());
  for (ObjectId o : m.reads) w.varint(o);
  w.varint(m.writes.size());
  for (ObjectId o : m.writes) w.varint(o);
}

std::optional<ClientReqMsg> decode_client_req(Reader& r) {
  ClientReqMsg m;
  const auto cookie = r.varint();
  const auto op = decode_client_op(r);
  const auto txn = r.varint();
  const auto obj = r.varint();
  if (!cookie || !op || !txn || !obj) return std::nullopt;
  m.cookie = *cookie;
  m.op = *op;
  m.txn = *txn;
  m.obj = *obj;
  const auto nr = r.varint();
  if (!nr) return std::nullopt;
  m.reads.reserve(
      static_cast<std::size_t>(std::min(*nr, std::uint64_t{r.remaining()})));
  for (std::uint64_t i = 0; i < *nr; ++i) {
    const auto o = r.varint();
    if (!o) return std::nullopt;
    m.reads.push_back(*o);
  }
  const auto nw = r.varint();
  if (!nw) return std::nullopt;
  m.writes.reserve(
      static_cast<std::size_t>(std::min(*nw, std::uint64_t{r.remaining()})));
  for (std::uint64_t i = 0; i < *nw; ++i) {
    const auto o = r.varint();
    if (!o) return std::nullopt;
    m.writes.push_back(*o);
  }
  return m;
}

void encode_client_resp(Writer& w, const ClientRespMsg& m) {
  w.varint(m.cookie);
  w.u8(static_cast<std::uint8_t>(m.op));
  w.u8(m.ok ? 1 : 0);
  w.varint(m.txn);
  w.varint(m.payload_bytes);
}

std::optional<ClientRespMsg> decode_client_resp(Reader& r) {
  const auto cookie = r.varint();
  const auto op = decode_client_op(r);
  const auto ok = r.u8();
  const auto txn = r.varint();
  const auto payload = r.varint();
  if (!cookie || !op || !ok || *ok > 1 || !txn || !payload)
    return std::nullopt;
  return ClientRespMsg{*cookie, *op, *ok != 0, *txn, *payload};
}

void encode_pushback(Writer& w, const PushbackMsg& m) {
  w.u8(m.stop ? 1 : 0);
  w.varint(m.depth);
}

std::optional<PushbackMsg> decode_pushback(Reader& r) {
  const auto stop = r.u8();
  const auto depth = r.varint();
  if (!stop || *stop > 1 || !depth) return std::nullopt;
  return PushbackMsg{*stop != 0, *depth};
}

// ---------------------------------------------------------------------------
// Coalesced (batch) frames.
// ---------------------------------------------------------------------------

void encode_batch(Writer& w,
                  const std::vector<std::vector<std::uint8_t>>& frames) {
  w.varint(frames.size());
  for (const auto& f : frames) {
    w.varint(f.size());
    w.bytes(f.data(), f.size());
  }
}

std::optional<std::vector<std::vector<std::uint8_t>>> decode_batch(Reader& r) {
  const auto n = r.varint();
  if (!n || *n == 0 || *n > (1u << 20)) return std::nullopt;
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(
      static_cast<std::size_t>(std::min(*n, std::uint64_t{r.remaining()})));
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto len = r.varint();
    if (!len || *len == 0 || r.remaining() < *len) return std::nullopt;
    std::vector<std::uint8_t> item;
    item.reserve(static_cast<std::size_t>(*len));
    for (std::uint64_t k = 0; k < *len; ++k) item.push_back(*r.u8());
    // A batch inside a batch is a protocol error (and a recursion hazard).
    if (item[0] == static_cast<std::uint8_t>(MsgType::kBatch))
      return std::nullopt;
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace gdur::net::codec


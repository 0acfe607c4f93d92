#include "front/server.h"

#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "front/socket.h"
#include "net/wire.h"
#include "obs/stats.h"

namespace gdur::front {

namespace codec = net::codec;

FrontServer::FrontServer(live::LiveCluster& cl, FrontConfig cfg)
    : cl_(cl),
      cfg_(std::move(cfg)),
      reactor_(ReactorConfig{.pause_read_at = cfg_.pause_read_at,
                             .sndbuf = cfg_.sndbuf}) {
  if (!cl_.hosted(cfg_.site))
    throw std::runtime_error("front: site not hosted by this process");
}

FrontServer::~FrontServer() { stop(); }

void FrontServer::start() {
  if (started_) return;
  // A start that throws (the address cannot be bound) leaves no socket open
  // and the server unstarted.
  const Listener listener = tcp_listen(cfg_.host, cfg_.port, 128);
  port_ = listener.port;

  // The reactor thread never touches session state: every event hops to the
  // serving site's mailbox, the same single thread the replica runs on.
  // Mailbox FIFO preserves the reactor's event order per connection
  // (accept before frames before close).
  reactor_.set_accept_handler(
      [this](int conn) { cl_.post(cfg_.site, [this, conn] { on_accept(conn); }); });
  reactor_.set_close_handler(
      [this](int conn) { cl_.post(cfg_.site, [this, conn] { on_close(conn); }); });
  reactor_.set_frame_handler(
      [this](int conn, std::vector<std::uint8_t> frame) {
        cl_.post(cfg_.site, [this, conn, f = std::move(frame)]() mutable {
          on_frame(conn, std::move(f));
        });
      });
  reactor_.add_listener(listener.fd);
  reactor_.start();
  started_ = true;
}

void FrontServer::stop() {
  if (!started_) return;
  started_ = false;
  // Joining the reactor ends the event stream; session teardown tasks
  // already posted either run or are discarded with the mailboxes (stop the
  // server before the cluster).
  reactor_.stop();
}

Session* FrontServer::session_of(int conn) {
  auto it = sessions_.find(conn);
  return it == sessions_.end() ? nullptr : &it->second;
}

void FrontServer::on_accept(int conn) {
  Session s;
  s.conn = conn;
  s.id = next_session_++;
  sessions_.emplace(conn, std::move(s));
  sessions_live_.fetch_add(1, std::memory_order_relaxed);
  if (stats_ != nullptr) stats_->record(obs::Counter::kClientSessions);
}

void FrontServer::on_close(int conn) {
  auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  // Presumed abort: open transactions were never submitted, so dropping
  // their records terminates them with no protocol traffic. In-flight
  // request contexts find the session gone and recycle themselves.
  if (auto* tr = cl_.trace()) {
    const SimTime now = cl_.now();
    // gdur-analyze: allow(gdur-determinism-escape) one report per transaction, stamped with the wall clock; the live trace has no golden order
    for (const auto& [seq, t] : it->second.open)
      tr->txn_finished(t->id, cfg_.site, now, false, t->read_only(),
                       obs::AbortReason::kPresumedAbort);
  }
  open_txns_.fetch_sub(it->second.open.size(), std::memory_order_relaxed);
  sessions_.erase(it);
  sessions_live_.fetch_sub(1, std::memory_order_relaxed);
}

void FrontServer::on_frame(int conn, std::vector<std::uint8_t> frame) {
  Session* s = session_of(conn);
  if (s == nullptr || s->closing) return;
  codec::Reader r(frame);
  const auto tag = r.u8();
  if (!tag) return;
  switch (static_cast<codec::MsgType>(*tag)) {
    case codec::MsgType::kClientHello: {
      auto m = codec::decode<codec::ClientHelloMsg>(r);
      if (!m || s->hello_done) break;
      handle_hello(*s, *m);
      return;
    }
    case codec::MsgType::kClientReq: {
      auto m = codec::decode<codec::ClientReqMsg>(r);
      if (!m || !s->hello_done) break;
      handle_req(*s, *m);
      return;
    }
    default:
      break;
  }
  // Malformed or out-of-order traffic: cut the connection (the close
  // handler GCs the session).
  GDUR_WARN("front: dropping client conn=%d after bad frame type=%u", conn,
            static_cast<unsigned>(*tag));
  s->closing = true;
  reactor_.close_soon(conn);
}

void FrontServer::handle_hello(Session& s,
                               const codec::ClientHelloMsg& /*m*/) {
  s.hello_done = true;
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientWelcome));
  codec::encode(w, codec::ClientWelcomeMsg{s.id, cfg_.window, cfg_.site,
                                          cl_.spec().name});
  send_to(s.conn, w);
  // Joined mid-overload: tell the new session immediately.
  if (pushed_.load(std::memory_order_relaxed)) send_pushback(s, true);
}

void FrontServer::handle_req(Session& s, const codec::ClientReqMsg& m) {
  // A client ignoring both its window and pushback frames is violating the
  // protocol; cut it off rather than queueing unboundedly.
  if (s.inflight >= 4 * cfg_.window) {
    GDUR_WARN("front: session %llu exceeded 4x window, closing",
              static_cast<unsigned long long>(s.id));
    s.closing = true;
    reactor_.close_soon(s.conn);
    return;
  }
  ++s.inflight;
  if (stats_ != nullptr) stats_->record(obs::Counter::kClientOps);

  RequestCtx* ctx = pool_.get();
  ctx_live_.fetch_add(1, std::memory_order_relaxed);
  ctx->conn = s.conn;
  ctx->session = s.id;
  ctx->cookie = m.cookie;
  ctx->op = m.op;
  ctx->t0 = cl_.now();
  ctx->reads.clear();
  ctx->writes.clear();
  ctx->next = 0;
  ctx->txn.reset();

  switch (m.op) {
    case codec::ClientOp::kBegin:
      cl_.begin(cfg_.site, [this, ctx](core::MutTxnPtr t) {
        Session* sess = session_of(ctx->conn);
        if (sess == nullptr || sess->closing) {
          // Disconnected while the begin was in flight: presumed abort.
          respond(ctx, false, 0, 0);
          return;
        }
        if (auto* tr = cl_.trace())
          tr->txn_started(t->id, cfg_.site, ctx->t0, cl_.now());
        sess->open.emplace(t->id.seq, t);
        open_txns_.fetch_add(1, std::memory_order_relaxed);
        respond(ctx, true, t->id.seq, 0);
      });
      return;
    case codec::ClientOp::kRead: {
      auto it = s.open.find(m.txn);
      if (it == s.open.end()) {
        respond(ctx, false, m.txn, 0);
        return;
      }
      cl_.read(cfg_.site, it->second, m.obj,
               [this, ctx, id = it->second->id](bool ok) {
                 if (auto* tr = cl_.trace())
                   tr->txn_op(id, obs::Phase::kRead, cfg_.site, ctx->t0,
                              cl_.now());
                 respond(ctx, ok, id.seq, net::wire::kPayload);
               });
      return;
    }
    case codec::ClientOp::kWrite: {
      auto it = s.open.find(m.txn);
      if (it == s.open.end()) {
        respond(ctx, false, m.txn, 0);
        return;
      }
      cl_.write(cfg_.site, it->second, m.obj, [this, ctx, id = it->second->id] {
        if (auto* tr = cl_.trace())
          tr->txn_op(id, obs::Phase::kWriteBuffer, cfg_.site, ctx->t0,
                     cl_.now());
        respond(ctx, true, id.seq, 0);
      });
      return;
    }
    case codec::ClientOp::kCommit: {
      auto it = s.open.find(m.txn);
      if (it == s.open.end()) {
        respond(ctx, false, m.txn, 0);
        return;
      }
      // Remove from the open table at submit so a duplicate commit for the
      // same handle can't double-terminate.
      ctx->txn = it->second;
      s.open.erase(it);
      open_txns_.fetch_sub(1, std::memory_order_relaxed);
      cl_.commit(cfg_.site, ctx->txn, [this, ctx](bool ok) {
        finish_txn(session_of(ctx->conn), ctx, ok, /*exec_failure=*/false);
      });
      return;
    }
    case codec::ClientOp::kStored: {
      ctx->reads = m.reads;
      ctx->writes = m.writes;
      cl_.begin(cfg_.site, [this, ctx](core::MutTxnPtr t) {
        if (auto* tr = cl_.trace())
          tr->txn_started(t->id, cfg_.site, ctx->t0, cl_.now());
        ctx->txn = std::move(t);
        step_stored(ctx);
      });
      return;
    }
  }
  respond(ctx, false, 0, 0);
}

void FrontServer::step_stored(RequestCtx* ctx) {
  // One-shot stored transaction: reads left to right, then writes, then
  // commit — the whole chain stays on the site thread.
  if (ctx->next < ctx->reads.size()) {
    const ObjectId x = ctx->reads[ctx->next++];
    ctx->op_start = cl_.now();
    cl_.read(cfg_.site, ctx->txn, x, [this, ctx](bool ok) {
      if (auto* tr = cl_.trace())
        tr->txn_op(ctx->txn->id, obs::Phase::kRead, cfg_.site, ctx->op_start,
                   cl_.now());
      if (!ok) {
        finish_txn(session_of(ctx->conn), ctx, false, /*exec_failure=*/true);
        return;
      }
      step_stored(ctx);
    });
    return;
  }
  const std::size_t widx = ctx->next - ctx->reads.size();
  if (widx < ctx->writes.size()) {
    const ObjectId x = ctx->writes[widx];
    ++ctx->next;
    ctx->op_start = cl_.now();
    cl_.write(cfg_.site, ctx->txn, x, [this, ctx] {
      if (auto* tr = cl_.trace())
        tr->txn_op(ctx->txn->id, obs::Phase::kWriteBuffer, cfg_.site,
                   ctx->op_start, cl_.now());
      step_stored(ctx);
    });
    return;
  }
  cl_.commit(cfg_.site, ctx->txn, [this, ctx](bool ok) {
    finish_txn(session_of(ctx->conn), ctx, ok, /*exec_failure=*/false);
  });
}

void FrontServer::finish_txn(Session* s, RequestCtx* ctx, bool ok,
                             bool exec_failure) {
  const SimTime now = cl_.now();
  if (observer_ && ctx->txn) observer_(*ctx->txn, ok, now - ctx->t0);
  if (auto* tr = cl_.trace(); tr != nullptr && ctx->txn) {
    const TxnId& id = ctx->txn->id;
    tr->txn_finished(
        id, cfg_.site, now, ok, ctx->writes.empty() && ctx->txn->read_only(),
        ok ? obs::AbortReason::kNone
           : cl_.replica(cfg_.site).abort_reason(id, exec_failure));
  }
  if (s == nullptr || s->closing) {
    // Client gone; the outcome is already durable cluster-side, only the
    // response is undeliverable.
    ctx->txn.reset();
    ctx->reads.clear();
    ctx->writes.clear();
    pool_.put(ctx);
    ctx_live_.fetch_sub(1, std::memory_order_relaxed);
    check_pushback();
    return;
  }
  const std::uint64_t seq = ctx->txn ? ctx->txn->id.seq : 0;
  respond(ctx, ok, seq, 0);
}

void FrontServer::respond(RequestCtx* ctx, bool ok, std::uint64_t txn,
                          std::uint64_t payload) {
  // Count the op before the response ships: a client that has seen the
  // response (and e.g. asserts on the gauge) must never observe a smaller
  // count.
  ops_.fetch_add(1, std::memory_order_relaxed);
  Session* s = session_of(ctx->conn);
  if (s != nullptr && !s->closing) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientResp));
    codec::encode(
        w, codec::ClientRespMsg{ctx->cookie, ctx->op, ok, txn, payload});
    send_to(ctx->conn, w);
    if (s->inflight > 0) --s->inflight;
  }
  ctx->txn.reset();
  ctx->reads.clear();
  ctx->writes.clear();
  pool_.put(ctx);
  ctx_live_.fetch_sub(1, std::memory_order_relaxed);
  check_pushback();
}

void FrontServer::send_to(int conn, codec::Writer& w) {
  // The writer's buffer moves straight into the reactor's outbound queue;
  // the flush path gathers it into writev without another copy.
  reactor_.send_frame(conn, w.take());
}

void FrontServer::check_pushback() {
  const std::size_t depth = cl_.replica(cfg_.site).queue_length();
  const bool cur = pushed_.load(std::memory_order_relaxed);
  if (!cur && depth >= cfg_.pushback_hi) {
    pushed_.store(true, std::memory_order_relaxed);
    pushback_trips_.fetch_add(1, std::memory_order_relaxed);
    if (stats_ != nullptr) stats_->record(obs::Counter::kClientPushbacks);
    // Broadcast over live client sessions: each frame goes to a distinct
    // connection, so cross-session send order is unobservable on any wire.
    // gdur-analyze: allow(gdur-determinism-escape) per-connection frames
    for (auto& [c, s] : sessions_) {
      if (s.hello_done && !s.closing) send_pushback(s, true);
    }
  } else if (cur && depth <= cfg_.pushback_lo) {
    pushed_.store(false, std::memory_order_relaxed);
    // Same per-connection argument as above for the resume broadcast.
    // gdur-analyze: allow(gdur-determinism-escape) per-connection frames
    for (auto& [c, s] : sessions_) {
      if (s.hello_done && !s.closing && s.pushed) send_pushback(s, false);
    }
  }
}

void FrontServer::send_pushback(Session& s, bool stop) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(codec::MsgType::kPushback));
  const auto depth =
      static_cast<std::uint64_t>(cl_.replica(cfg_.site).queue_length());
  codec::encode(w, codec::PushbackMsg{stop, depth});
  send_to(s.conn, w);
  s.pushed = stop;
}

std::string FrontServer::breakdown() const {
  // Mirrors Replica::term_breakdown(): every per-session structure, so
  // tests can assert it returns to baseline after clients disconnect.
  return "sessions=" + std::to_string(sessions_live_.load()) +
         " open_txns=" + std::to_string(open_txns_.load()) +
         " ctx_live=" + std::to_string(ctx_live_.load());
}

}  // namespace gdur::front

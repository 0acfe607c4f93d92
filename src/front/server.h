// FrontServer — the production front door of one site.
//
// Owns a front::Reactor with a listening socket and speaks the client
// protocol (codec 32+ message types): hello/welcome session establishment,
// then pipelined, cookie-correlated requests — begin/read/write/commit for
// interactive transactions and kStored for one-shot stored transactions.
//
// Threading: the reactor thread only moves bytes; every accept, frame and
// close event is posted to the serving site's mailbox, so all session state
// (front::Session) is confined to the site thread, exactly like the replica
// it fronts. Responses go back through Reactor::send_frame (thread-safe).
//
// Backpressure, two layers (DESIGN.md §15):
//   * Admission: when the site's certification queue exceeds
//     `pushback_hi`, every session gets Pushback{stop=1} and well-behaved
//     clients stop submitting; Pushback{stop=0} releases them below
//     `pushback_lo`. Sessions that keep submitting anyway are cut off at
//     4× their advertised window (protocol violation).
//   * Memory: a never-reading client grows its connection's output queue,
//     not the server — the reactor auto-pauses reads above
//     `pause_read_at` pending output bytes, so the server stops accepting
//     new requests from that client until it drains responses.
//
// Per-request metadata comes from a free-list pool (front/pool.h):
// the steady-state request path allocates no metadata nodes.
//
// With a TraceRecorder attached to the cluster, the server is the client
// of record: it reports each transaction's begin, reads, writes and end
// (a session closing with transactions open reports each as a presumed
// abort), so front-door transactions reach the phase sink.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/analysis_annotations.h"
#include "front/pool.h"
#include "front/reactor.h"
#include "front/session.h"
#include "live/live_cluster.h"
#include "net/codec.h"

namespace gdur::front {

struct FrontConfig {
  /// The site this front door serves; every transaction it admits is
  /// coordinated there. Must be hosted by this process.
  SiteId site = 0;
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port() after start().
  std::uint16_t port = 0;
  /// Per-session in-flight window advertised in the welcome frame.
  std::uint32_t window = 64;
  /// Certification-queue depth tripping / releasing admission pushback.
  std::size_t pushback_hi = 512;
  std::size_t pushback_lo = 128;
  /// Reactor per-connection output watermark (never-reading client bound).
  std::size_t pause_read_at = 1u << 20;
  /// SO_SNDBUF for client connections (0 = kernel default); see
  /// ReactorConfig::sndbuf.
  int sndbuf = 0;
};

class FrontServer {
 public:
  /// Observes every transaction this server terminates (commit or abort)
  /// with its client-visible response time. Runs on the site thread; wire
  /// it to checker::History + harness::Metrics.
  using TxnObserver =
      std::function<void(const core::TxnRecord&, bool committed,
                         SimTime response_ns)>;

  FrontServer(live::LiveCluster& cl, FrontConfig cfg);
  ~FrontServer();

  FrontServer(const FrontServer&) = delete;
  FrontServer& operator=(const FrontServer&) = delete;

  /// Binds + listens + starts the reactor. Call after the cluster started.
  void start();
  /// Stops accepting, drops every session, joins the reactor. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  void set_observer(TxnObserver obs) { observer_ = std::move(obs); }
  /// Site stats slot for kClientSessions/kClientOps/kClientPushbacks.
  /// Set before start(); not owned.
  void set_stats(obs::StatsSlot* s) { stats_ = s; }

  // --- lock-free gauges (tests, obs probes) ------------------------------
  [[nodiscard]] std::uint64_t sessions_live() const {
    return sessions_live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t open_txns() const {
    return open_txns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ops_served() const {
    return ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pushback_trips() const {
    return pushback_trips_.load(std::memory_order_relaxed);
  }
  /// Requests admitted but not yet responded to (drain-completion gauge).
  [[nodiscard]] std::uint64_t requests_inflight() const {
    return ctx_live_.load(std::memory_order_relaxed);
  }
  /// True while admission pushback is engaged (watermark test hook).
  [[nodiscard]] bool pushed_back() const {
    return pushed_.load(std::memory_order_relaxed);
  }

  /// One-line state breakdown (mirrors Replica::term_breakdown): the
  /// no-leak probe for session GC — every per-session structure must
  /// return to zero after clients disconnect.
  [[nodiscard]] std::string breakdown() const;

  [[nodiscard]] Reactor& reactor() { return reactor_; }

 private:
  /// Pooled per-request metadata; recycled when the response ships.
  struct RequestCtx {
    int conn = -1;
    std::uint64_t session = 0;
    std::uint64_t cookie = 0;
    net::codec::ClientOp op = net::codec::ClientOp::kBegin;
    SimTime t0 = 0;  // receipt time (latency measurement)
    SimTime op_start = 0;  // kStored: the running read or write began here
    /// kStored only: remaining work, consumed left to right.
    std::vector<ObjectId> reads;
    std::vector<ObjectId> writes;
    std::size_t next = 0;
    core::MutTxnPtr txn;
  };

  // All private handlers run on the site mailbox thread. The
  // GDUR_CONFINED annotations make that sentence machine-checked:
  // gdur-thread-confinement proves every access to the site-thread state
  // below happens inside one of these (or a function they dominate).
  GDUR_CONFINED("site-thread") void on_accept(int conn);
  GDUR_CONFINED("site-thread") void on_close(int conn);
  GDUR_CONFINED("site-thread")
  void on_frame(int conn, std::vector<std::uint8_t> frame);
  GDUR_CONFINED("site-thread")
  void handle_hello(Session& s, const net::codec::ClientHelloMsg& m);
  GDUR_CONFINED("site-thread")
  void handle_req(Session& s, const net::codec::ClientReqMsg& m);
  GDUR_CONFINED("site-thread") void step_stored(RequestCtx* ctx);
  GDUR_CONFINED("site-thread")
  void respond(RequestCtx* ctx, bool ok, std::uint64_t txn,
               std::uint64_t payload);
  GDUR_CONFINED("site-thread") void send_to(int conn, net::codec::Writer& w);
  /// Terminates ctx's transaction; `exec_failure` = a read failed before
  /// commit (classified as in workload::TxnFlow, via Replica::abort_reason).
  GDUR_CONFINED("site-thread")
  void finish_txn(Session* s, RequestCtx* ctx, bool ok, bool exec_failure);
  GDUR_CONFINED("site-thread") void check_pushback();
  GDUR_CONFINED("site-thread") void send_pushback(Session& s, bool stop);
  [[nodiscard]] GDUR_CONFINED("site-thread") Session* session_of(int conn);

  live::LiveCluster& cl_;
  FrontConfig cfg_;
  Reactor reactor_;
  std::uint16_t port_ = 0;
  bool started_ = false;

  TxnObserver observer_;
  obs::StatsSlot* stats_ = nullptr;

  // Site-thread-only state (proof: gdur-thread-confinement, lane
  // "site-thread" — only the annotated handlers above may touch these).
  GDUR_CONFINED("site-thread")
  std::unordered_map<int, Session> sessions_;  // conn id → session
  GDUR_CONFINED("site-thread") std::uint64_t next_session_ = 1;
  GDUR_CONFINED("site-thread") Pool<RequestCtx> pool_;

  // Gauges (site thread writes, any thread reads).
  std::atomic<std::uint64_t> sessions_live_{0};
  std::atomic<std::uint64_t> open_txns_{0};
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> pushback_trips_{0};
  std::atomic<std::uint64_t> ctx_live_{0};
  std::atomic<bool> pushed_{false};
};

}  // namespace gdur::front

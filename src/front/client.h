// GdurClient — the client-side half of the front-door protocol.
//
// A thin, dependency-free library an application (or gdur_loadgen) links to
// talk to a gdur_site process: one TCP connection, one session, pipelined
// cookie-correlated requests up to the server-advertised window.
//
// Threading: connect() is blocking (dial, hello, welcome). After that a
// reader thread owns the socket's inbound side and invokes response
// callbacks; submission happens from any thread. submit() blocks while the
// window is full or the server pushed back (closed-loop clients self-
// throttle on exactly that); try_submit() never blocks (open-loop sources
// count a refusal as shed load instead of queueing).
//
// Backpressure honored: a Pushback{stop} frame parks every submitter until
// the matching resume frame — the client never submits into an overloaded
// server, and the windows bound what the server must buffer per session.
//
// This is intentionally a blocking-socket client: gdur-lint's
// live/blocking-call rule covers the server dispatch path, not this file.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/codec.h"

namespace gdur::front {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class GdurClient {
 public:
  using Resp = net::codec::ClientRespMsg;
  /// Invoked on the reader thread. On connection loss every outstanding
  /// callback fires once with ok=false.
  using RespCb = std::function<void(const Resp&)>;

  explicit GdurClient(ClientConfig cfg) : cfg_(std::move(cfg)) {}
  ~GdurClient();

  GdurClient(const GdurClient&) = delete;
  GdurClient& operator=(const GdurClient&) = delete;

  /// Dials, performs hello/welcome, spawns the reader thread. Refused
  /// dials (site still booting) are retried for up to 10 s.
  [[nodiscard]] bool connect();
  void close();

  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t session() const { return session_; }
  [[nodiscard]] std::uint32_t window() const { return window_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] const std::string& protocol() const { return protocol_; }

  // --- pipelined core ----------------------------------------------------
  /// Blocking submit: waits for a window slot and for any pushback to
  /// clear, then sends. False only when the connection is gone.
  bool submit(net::codec::ClientOp op, std::uint64_t txn, ObjectId obj,
              std::vector<ObjectId> reads, std::vector<ObjectId> writes,
              RespCb cb);
  /// Non-blocking submit: false when the window is full, the server pushed
  /// back, or the connection is gone (open-loop shed signal).
  bool try_submit(net::codec::ClientOp op, std::uint64_t txn, ObjectId obj,
                  std::vector<ObjectId> reads, std::vector<ObjectId> writes,
                  RespCb cb);

  // --- blocking conveniences (closed-loop flows) -------------------------
  /// Begins an interactive transaction; returns its server-issued handle.
  [[nodiscard]] std::optional<std::uint64_t> begin_sync();
  [[nodiscard]] bool read_sync(std::uint64_t txn, ObjectId obj);
  [[nodiscard]] bool write_sync(std::uint64_t txn, ObjectId obj);
  /// Returns the commit verdict (false = aborted or connection lost).
  [[nodiscard]] bool commit_sync(std::uint64_t txn);
  /// One-shot stored transaction, one round trip. Returns the verdict.
  [[nodiscard]] bool stored_sync(const std::vector<ObjectId>& reads,
                                 const std::vector<ObjectId>& writes);

  // --- gauges ------------------------------------------------------------
  [[nodiscard]] std::uint32_t inflight() const {
    return inflight_gauge_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Pushback stop frames received (the explicit-backpressure test hook).
  [[nodiscard]] std::uint64_t pushbacks() const {
    return pushbacks_.load(std::memory_order_relaxed);
  }
  /// True while the server's pushback currently parks submissions.
  [[nodiscard]] bool pushed_back() const {
    return pushed_gauge_.load(std::memory_order_relaxed);
  }

 private:
  /// Sends one request frame; on a send error fails every pending request.
  bool send_req(const net::codec::ClientReqMsg& m);
  void reader_loop();
  /// Fails every outstanding callback with ok=false and wakes waiters.
  void fail_all();
  [[nodiscard]] Resp roundtrip(net::codec::ClientOp op, std::uint64_t txn,
                               ObjectId obj, std::vector<ObjectId> reads,
                               std::vector<ObjectId> writes);

  ClientConfig cfg_;
  int fd_ = -1;
  std::uint64_t session_ = 0;
  std::uint32_t window_ = 0;
  SiteId site_ = kNoSite;
  std::string protocol_;
  std::thread reader_;

  Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::uint64_t, RespCb> cbs_ GUARDED_BY(mu_);
  std::uint64_t next_cookie_ GUARDED_BY(mu_) = 1;
  std::uint32_t inflight_ GUARDED_BY(mu_) = 0;
  bool pushed_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = true;

  Mutex write_mu_;  // serializes whole frames onto the socket

  std::atomic<bool> connected_{false};
  std::atomic<std::uint32_t> inflight_gauge_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> pushbacks_{0};
  std::atomic<bool> pushed_gauge_{false};
};

}  // namespace gdur::front

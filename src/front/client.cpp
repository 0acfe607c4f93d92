#include "front/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "front/socket.h"
#include "net/frame.h"

namespace gdur::front {

namespace codec = net::codec;

namespace {
constexpr auto kConnectTimeout = std::chrono::seconds(10);
}  // namespace

GdurClient::~GdurClient() { close(); }

bool GdurClient::connect() {
  fd_ = tcp_dial(cfg_.host, cfg_.port,
                 std::chrono::steady_clock::now() + kConnectTimeout);
  if (fd_ < 0) return false;

  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientHello));
  codec::encode(w, codec::ClientHelloMsg{1, kNoSite});
  if (!net::write_frame(fd_, w.data())) {
    close();
    return false;
  }
  std::vector<std::uint8_t> body;
  if (!net::read_frame(fd_, body, net::kMaxFrame)) {
    close();
    return false;
  }
  codec::Reader r(body);
  const auto tag = r.u8();
  if (!tag ||
      static_cast<codec::MsgType>(*tag) != codec::MsgType::kClientWelcome) {
    close();
    return false;
  }
  auto welcome = codec::decode<codec::ClientWelcomeMsg>(r);
  if (!welcome) {
    close();
    return false;
  }
  session_ = welcome->session;
  window_ = welcome->window;
  site_ = welcome->site;
  protocol_ = welcome->protocol;
  {
    MutexLock lock(&mu_);
    closed_ = false;
    pushed_ = false;
  }
  connected_.store(true, std::memory_order_relaxed);
  reader_ = std::thread([this] { reader_loop(); });
  return true;
}

void GdurClient::close() {
  {
    MutexLock lock(&mu_);
    if (closed_ && fd_ < 0) return;
    closed_ = true;
  }
  cv_.notify_all();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_.store(false, std::memory_order_relaxed);
  fail_all();
}

void GdurClient::reader_loop() {
  std::vector<std::uint8_t> body;
  for (;;) {
    if (!net::read_frame(fd_, body, net::kMaxFrame)) break;
    codec::Reader r(body);
    const auto tag = r.u8();
    if (!tag) break;
    switch (static_cast<codec::MsgType>(*tag)) {
      case codec::MsgType::kClientResp: {
        auto m = codec::decode<codec::ClientRespMsg>(r);
        if (!m) break;
        RespCb cb;
        {
          MutexLock lock(&mu_);
          auto it = cbs_.find(m->cookie);
          if (it == cbs_.end()) break;
          cb = std::move(it->second);
          cbs_.erase(it);
          if (inflight_ > 0) --inflight_;
          inflight_gauge_.store(inflight_, std::memory_order_relaxed);
        }
        cv_.notify_all();
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (cb) cb(*m);
        break;
      }
      case codec::MsgType::kPushback: {
        auto m = codec::decode<codec::PushbackMsg>(r);
        if (!m) break;
        {
          MutexLock lock(&mu_);
          pushed_ = m->stop;
        }
        pushed_gauge_.store(m->stop, std::memory_order_relaxed);
        if (m->stop) pushbacks_.fetch_add(1, std::memory_order_relaxed);
        cv_.notify_all();
        break;
      }
      default:
        break;  // unknown server frame: ignore (forward compatibility)
    }
  }
  connected_.store(false, std::memory_order_relaxed);
  fail_all();
}

void GdurClient::fail_all() {
  std::unordered_map<std::uint64_t, RespCb> orphans;
  {
    MutexLock lock(&mu_);
    closed_ = true;
    orphans.swap(cbs_);
    inflight_ = 0;
    inflight_gauge_.store(0, std::memory_order_relaxed);
  }
  cv_.notify_all();
  // Teardown fan-out: per-callback delivery, hash order immaterial (each
  // callback belongs to a distinct caller).
  for (auto& [cookie, cb] : orphans) {
    if (!cb) continue;
    Resp r;
    r.cookie = cookie;
    r.ok = false;
    cb(r);
  }
}

bool GdurClient::submit(codec::ClientOp op, std::uint64_t txn, ObjectId obj,
                        std::vector<ObjectId> reads,
                        std::vector<ObjectId> writes, RespCb cb) {
  std::uint64_t cookie = 0;
  {
    MutexLock lock(&mu_);
    cv_.wait(lock, [this]() REQUIRES(mu_) {
      return closed_ || (inflight_ < window_ && !pushed_);
    });
    if (closed_) return false;
    cookie = next_cookie_++;
    cbs_.emplace(cookie, std::move(cb));
    ++inflight_;
    inflight_gauge_.store(inflight_, std::memory_order_relaxed);
  }
  return send_req({cookie, op, txn, obj, std::move(reads), std::move(writes)});
}

bool GdurClient::try_submit(codec::ClientOp op, std::uint64_t txn,
                            ObjectId obj, std::vector<ObjectId> reads,
                            std::vector<ObjectId> writes, RespCb cb) {
  std::uint64_t cookie = 0;
  {
    MutexLock lock(&mu_);
    if (closed_ || inflight_ >= window_ || pushed_) return false;
    cookie = next_cookie_++;
    cbs_.emplace(cookie, std::move(cb));
    ++inflight_;
    inflight_gauge_.store(inflight_, std::memory_order_relaxed);
  }
  return send_req({cookie, op, txn, obj, std::move(reads), std::move(writes)});
}

bool GdurClient::send_req(const codec::ClientReqMsg& m) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientReq));
  codec::encode(w, m);
  bool sent = false;
  {
    MutexLock lock(&write_mu_);
    sent = net::write_frame(fd_, w.data());
  }
  if (!sent) fail_all();
  return sent;
}

GdurClient::Resp GdurClient::roundtrip(codec::ClientOp op, std::uint64_t txn,
                                       ObjectId obj,
                                       std::vector<ObjectId> reads,
                                       std::vector<ObjectId> writes) {
  // One-shot waiter sharing the client's cv: the callback runs on the
  // reader thread and flips `done`.
  struct Waiter {
    bool done = false;
    Resp resp;
  };
  auto waiter = std::make_shared<Waiter>();
  const bool sent = submit(op, txn, obj, std::move(reads), std::move(writes),
                           [this, waiter](const Resp& r) {
                             {
                               MutexLock lock(&mu_);
                               waiter->resp = r;
                               waiter->done = true;
                             }
                             cv_.notify_all();
                           });
  if (!sent) {
    Resp r;
    r.ok = false;
    return r;
  }
  MutexLock lock(&mu_);
  cv_.wait(lock, [&]() REQUIRES(mu_) { return waiter->done || closed_; });
  return waiter->resp;  // ok=false default when the connection died first
}

std::optional<std::uint64_t> GdurClient::begin_sync() {
  const Resp r = roundtrip(codec::ClientOp::kBegin, 0, 0, {}, {});
  if (!r.ok) return std::nullopt;
  return r.txn;
}

bool GdurClient::read_sync(std::uint64_t txn, ObjectId obj) {
  return roundtrip(codec::ClientOp::kRead, txn, obj, {}, {}).ok;
}

bool GdurClient::write_sync(std::uint64_t txn, ObjectId obj) {
  return roundtrip(codec::ClientOp::kWrite, txn, obj, {}, {}).ok;
}

bool GdurClient::commit_sync(std::uint64_t txn) {
  return roundtrip(codec::ClientOp::kCommit, txn, 0, {}, {}).ok;
}

bool GdurClient::stored_sync(const std::vector<ObjectId>& reads,
                             const std::vector<ObjectId>& writes) {
  return roundtrip(codec::ClientOp::kStored, 0, 0, reads, writes).ok;
}

}  // namespace gdur::front

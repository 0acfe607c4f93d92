// Tests for the production front door (src/front/): reactor framing over
// both backends, arena/pool recycling, shutdown signal plumbing, client
// sessions end to end against live clusters, presumed abort + session GC on
// disconnect, and both backpressure layers — admission pushback and the
// never-reading-client memory bound.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "front/pool.h"
#include "front/client.h"
#include "front/reactor.h"
#include "front/server.h"
#include "front/signals.h"
#include "live/live_cluster.h"
#include "net/codec.h"
#include "protocols/protocols.h"

namespace gdur::front {
namespace {

using namespace std::chrono_literals;
namespace codec = net::codec;

// --- raw-socket helpers (protocol-violating clients can't use GdurClient) --

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    // MSG_NOSIGNAL: a server that cut this session off must fail the write,
    // not kill the test with SIGPIPE.
    const auto k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool send_raw_frame(int fd, const std::vector<std::uint8_t>& body) {
  std::uint8_t hdr[4];
  const auto n = static_cast<std::uint32_t>(body.size());
  hdr[0] = static_cast<std::uint8_t>(n);
  hdr[1] = static_cast<std::uint8_t>(n >> 8);
  hdr[2] = static_cast<std::uint8_t>(n >> 16);
  hdr[3] = static_cast<std::uint8_t>(n >> 24);
  return write_all(fd, hdr, 4) && write_all(fd, body.data(), body.size());
}

/// Blocking read of one length-prefixed frame; empty on EOF/error.
std::vector<std::uint8_t> read_raw_frame(int fd) {
  std::uint8_t hdr[4];
  std::size_t got = 0;
  while (got < 4) {
    const auto k = ::read(fd, hdr + got, 4 - got);
    if (k <= 0) return {};
    got += static_cast<std::size_t>(k);
  }
  const std::uint32_t n = static_cast<std::uint32_t>(hdr[0]) |
                          (static_cast<std::uint32_t>(hdr[1]) << 8) |
                          (static_cast<std::uint32_t>(hdr[2]) << 16) |
                          (static_cast<std::uint32_t>(hdr[3]) << 24);
  std::vector<std::uint8_t> body(n);
  got = 0;
  while (got < n) {
    const auto k = ::read(fd, body.data() + got, n - got);
    if (k <= 0) return {};
    got += static_cast<std::size_t>(k);
  }
  return body;
}

int make_listener(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 16), 0);
  sockaddr_in bound = {};
  socklen_t blen = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  *port_out = ntohs(bound.sin_port);
  return fd;
}

template <typename Pred>
bool wait_until(Pred p, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return p();
}

// --- reactor ---------------------------------------------------------------

class ReactorBackends : public ::testing::TestWithParam<bool> {};

TEST_P(ReactorBackends, EchoesFramesAndCountsAccepts) {
  ReactorConfig rc;
  rc.use_epoll = GetParam();
  Reactor r(rc);
  std::uint16_t port = 0;
  r.add_listener(make_listener(&port));
  r.set_frame_handler([&r](int conn, std::vector<std::uint8_t> frame) {
    r.send_frame(conn, std::move(frame));  // echo
  });
  r.start();
  if (GetParam()) EXPECT_TRUE(r.using_epoll());
  else EXPECT_FALSE(r.using_epoll());

  const int fd = dial(port);
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> msg(static_cast<std::size_t>(1 + i % 37),
                                  static_cast<std::uint8_t>(i));
    ASSERT_TRUE(send_raw_frame(fd, msg));
    EXPECT_EQ(read_raw_frame(fd), msg) << "frame " << i;
  }
  ::close(fd);
  EXPECT_TRUE(wait_until([&r] { return r.accepted() == 1; }));
  EXPECT_EQ(r.frames_received(), 100u);
  r.stop();
}

INSTANTIATE_TEST_SUITE_P(EpollAndPoll, ReactorBackends,
                         ::testing::Values(true, false));

TEST(Reactor, CloseHandlerFiresExactlyOnceOnPeerClose) {
  Reactor r;
  std::uint16_t port = 0;
  r.add_listener(make_listener(&port));
  std::atomic<int> closes{0};
  r.set_close_handler([&closes](int) { closes.fetch_add(1); });
  r.start();
  const int fd = dial(port);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(wait_until([&r] { return r.accepted() == 1; }));
  ::close(fd);
  EXPECT_TRUE(wait_until([&closes] { return closes.load() == 1; }));
  std::this_thread::sleep_for(50ms);  // would catch a double-fire
  EXPECT_EQ(closes.load(), 1);
  r.stop();
}

TEST(Reactor, OversizedFrameDropsConnection) {
  ReactorConfig rc;
  rc.max_frame = 64;
  Reactor r(rc);
  std::uint16_t port = 0;
  r.add_listener(make_listener(&port));
  std::atomic<int> closes{0};
  r.set_close_handler([&closes](int) { closes.fetch_add(1); });
  r.start();
  const int fd = dial(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_raw_frame(fd, std::vector<std::uint8_t>(100, 7)));
  EXPECT_TRUE(wait_until([&closes] { return closes.load() == 1; }));
  EXPECT_EQ(r.frames_received(), 0u);
  ::close(fd);
  r.stop();
}

// --- pool ------------------------------------------------------------------

TEST(Pool, SteadyStateRecyclesNodes) {
  Pool<std::vector<int>> pool;
  auto* a = pool.get();
  auto* b = pool.get();
  EXPECT_EQ(pool.live(), 2u);
  pool.put(a);
  EXPECT_EQ(pool.pooled(), 1u);
  auto* c = pool.get();
  EXPECT_EQ(c, a);  // free-list reuse, no fresh allocation
  EXPECT_EQ(pool.pooled(), 0u);
  pool.put(b);
  pool.put(c);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.pooled(), 2u);
}

// --- signals ---------------------------------------------------------------

TEST(Signals, TestHookInterruptsSleep) {
  reset_shutdown_for_test();
  EXPECT_FALSE(shutdown_requested());
  EXPECT_FALSE(interruptible_sleep(0.05));  // elapses quietly
  request_shutdown_for_test();
  EXPECT_TRUE(shutdown_requested());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(interruptible_sleep(30.0));  // returns at once, not in 30 s
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  reset_shutdown_for_test();
}

// --- client/server end to end ----------------------------------------------

struct LiveFront {
  std::unique_ptr<live::LiveCluster> cluster;
  std::unique_ptr<FrontServer> server;

  explicit LiveFront(const std::string& protocol, FrontConfig fc = {}) {
    live::LiveConfig lc;
    lc.base.sites = 2;
    lc.base.objects_per_site = 256;
    lc.base.partitions_per_site = 1;
    cluster = std::make_unique<live::LiveCluster>(
        lc, protocols::by_name(protocol));
    cluster->start();
    server = std::make_unique<FrontServer>(*cluster, fc);
    server->start();
  }
  ~LiveFront() {
    server->stop();
    cluster->stop();
  }
};

TEST(FrontEndToEnd, InteractiveAndStoredAcrossProtocols) {
  for (const char* protocol : {"P-Store", "GMU", "Walter"}) {
    LiveFront lf(protocol);
    std::atomic<int> observed{0};
    lf.server->set_observer(
        [&observed](const core::TxnRecord&, bool, SimTime) {
          observed.fetch_add(1);
        });

    ClientConfig cc;
    cc.port = lf.server->port();
    GdurClient c(cc);
    ASSERT_TRUE(c.connect()) << protocol;
    EXPECT_EQ(c.protocol(), protocol);
    EXPECT_GT(c.window(), 0u);

    int committed = 0;
    for (int i = 0; i < 20; ++i) {
      const auto h = c.begin_sync();
      ASSERT_TRUE(h.has_value()) << protocol;
      EXPECT_TRUE(c.read_sync(*h, static_cast<ObjectId>(i)));
      EXPECT_TRUE(c.write_sync(*h, static_cast<ObjectId>(i + 100)));
      if (c.commit_sync(*h)) ++committed;
    }
    for (int i = 0; i < 20; ++i)
      if (c.stored_sync({static_cast<ObjectId>(i)},
                        {static_cast<ObjectId>(i + 200)}))
        ++committed;
    // Single client, no contention: everything should commit.
    EXPECT_EQ(committed, 40) << protocol;
    EXPECT_GE(lf.server->ops_served(), 20u * 4 + 20u) << protocol;
    EXPECT_EQ(observed.load(), 40) << protocol;
    c.close();
    EXPECT_TRUE(wait_until(
        [&lf] { return lf.server->sessions_live() == 0; }))
        << protocol;
  }
}

TEST(FrontEndToEnd, CommitOfUnknownHandleFailsCleanly) {
  LiveFront lf("P-Store");
  ClientConfig cc;
  cc.port = lf.server->port();
  GdurClient c(cc);
  ASSERT_TRUE(c.connect());
  EXPECT_FALSE(c.commit_sync(123456));  // never issued
  EXPECT_FALSE(c.read_sync(123456, 1));
  // The session survives bogus handles (they are client errors, not
  // protocol violations).
  EXPECT_TRUE(c.stored_sync({1}, {2}));
}

TEST(FrontEndToEnd, DisconnectMidTxnPresumedAbortAndSessionGc) {
  LiveFront lf("P-Store");
  ClientConfig cc;
  cc.port = lf.server->port();
  {
    GdurClient c(cc);
    ASSERT_TRUE(c.connect());
    // Leave five transactions open (begun, written, never committed).
    for (int i = 0; i < 5; ++i) {
      const auto h = c.begin_sync();
      ASSERT_TRUE(h.has_value());
      ASSERT_TRUE(c.write_sync(*h, static_cast<ObjectId>(i)));
    }
    EXPECT_EQ(lf.server->open_txns(), 5u);
    c.close();  // disconnect with all five still open
  }
  // Presumed abort: the session and every open transaction must be GC'd
  // without any commit traffic, and no request context may leak.
  EXPECT_TRUE(wait_until([&lf] {
    return lf.server->breakdown() == "sessions=0 open_txns=0 ctx_live=0";
  })) << lf.server->breakdown();
}

TEST(FrontEndToEnd, AdmissionPushbackTripsAndReleases) {
  FrontConfig fc;
  fc.pushback_hi = 1;  // any queued certification trips the watermark
  fc.pushback_lo = 0;
  LiveFront lf("P-Store", fc);
  ClientConfig cc;
  cc.port = lf.server->port();
  GdurClient c(cc);
  ASSERT_TRUE(c.connect());

  // Pipelined update stored txns keep the certification queue nonempty;
  // with hi=1 the server must push back at least once, and the client must
  // see (and honor) the stop/resume frames.
  std::atomic<int> done{0};
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(c.submit(
        codec::ClientOp::kStored, 0, 0, {static_cast<ObjectId>(i % 64)},
        {static_cast<ObjectId>(64 + i % 64)},
        [&done](const GdurClient::Resp&) { done.fetch_add(1); }));
  }
  EXPECT_TRUE(wait_until([&done] { return done.load() == 400; }, 30000ms));
  EXPECT_GT(lf.server->pushback_trips(), 0u);
  EXPECT_GT(c.pushbacks(), 0u);
  // Released again once the queue drained (no wedged-open pushback).
  EXPECT_TRUE(wait_until([&lf] { return !lf.server->pushed_back(); }));
  EXPECT_FALSE(c.pushed_back());
}

TEST(FrontEndToEnd, WindowViolatorIsDisconnectedNotBuffered) {
  FrontConfig fc;
  fc.window = 4;  // cut-off at 16 in flight
  LiveFront lf("P-Store", fc);
  const int fd = dial(lf.server->port());
  ASSERT_GE(fd, 0);
  codec::Writer hello;
  hello.u8(static_cast<std::uint8_t>(codec::MsgType::kClientHello));
  codec::encode(hello, codec::ClientHelloMsg{});
  ASSERT_TRUE(send_raw_frame(fd, hello.data()));
  ASSERT_FALSE(read_raw_frame(fd).empty());  // welcome

  // Ignore the window: blast 200 update transactions without reading
  // anything. The server must cut the session off instead of queueing.
  for (std::uint64_t i = 0; i < 200; ++i) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientReq));
    codec::encode(
        w, codec::ClientReqMsg{i + 1, codec::ClientOp::kStored, 0, 0,
                               {static_cast<ObjectId>(i % 32)},
                               {static_cast<ObjectId>(32 + i % 32)}});
    if (!send_raw_frame(fd, w.data())) break;  // server already cut us off
  }
  // EOF (empty frame) must arrive: read whatever responses were produced
  // before the cut, then the close.
  EXPECT_TRUE(wait_until([fd] { return read_raw_frame(fd).empty(); },
                         15000ms));
  ::close(fd);
  EXPECT_TRUE(
      wait_until([&lf] { return lf.server->sessions_live() == 0; }));
}

TEST(FrontEndToEnd, NeverReadingClientIsPausedWithBoundedMemory) {
  FrontConfig fc;
  fc.window = 1u << 20;       // never trip the window-violation cutoff
  fc.pushback_hi = 1u << 20;  // nor admission pushback
  fc.pause_read_at = 8 * 1024;
  fc.sndbuf = 4096;  // keep the kernel from absorbing the backlog
  LiveFront lf("P-Store", fc);

  // A tiny receive buffer keeps the kernel from absorbing the backlog, so
  // the memory pressure lands where the test looks: the reactor's
  // per-connection output queue. Must be set before connect().
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(cfd, 0);
  const int rcv = 4096;
  ::setsockopt(cfd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(lf.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(cfd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)), 0);
  codec::Writer hello;
  hello.u8(static_cast<std::uint8_t>(codec::MsgType::kClientHello));
  codec::encode(hello, codec::ClientHelloMsg{});
  ASSERT_TRUE(send_raw_frame(cfd, hello.data()));

  // Flood read-only stored txns, reading NOTHING back, non-blocking: once
  // our send buffer jams, the server has stopped reading — which, with the
  // window and admission gates disabled, can only be the auto-pause.
  const int fl = ::fcntl(cfd, F_GETFL);
  ::fcntl(cfd, F_SETFL, fl | O_NONBLOCK);
  constexpr std::uint64_t kMaxReqs = 20000;
  std::uint64_t sent = 0;
  int stalls = 0;
  while (sent < kMaxReqs && stalls < 200) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::MsgType::kClientReq));
    codec::encode(w, codec::ClientReqMsg{sent + 1, codec::ClientOp::kStored,
                                         0, 0,
                                         {static_cast<ObjectId>(sent % 128)},
                                         {}});
    std::vector<std::uint8_t> frame;
    const auto n = static_cast<std::uint32_t>(w.size());
    frame = {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
             static_cast<std::uint8_t>(n >> 16),
             static_cast<std::uint8_t>(n >> 24)};
    frame.insert(frame.end(), w.data().begin(), w.data().end());
    const auto k = ::send(cfd, frame.data(), frame.size(), 0);
    if (k == static_cast<ssize_t>(frame.size())) {
      ++sent;
      stalls = 0;
    } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ++stalls;  // pipe jammed: server stopped reading
      std::this_thread::sleep_for(5ms);
    } else {
      // Partial frame write can't happen below the ~64K atomic-send bound;
      // anything else is a real error.
      FAIL() << "send returned " << k << " errno=" << errno;
    }
  }
  ASSERT_GT(sent, 0u);

  Reactor& r = lf.server->reactor();
  // Conn ids start at 0 per reactor; this client is the only connection.
  EXPECT_TRUE(wait_until([&r] { return r.read_paused(0); }, 15000ms));
  // Bounded: roughly the watermark plus one read burst of small responses —
  // not the full backlog of `sent` responses.
  EXPECT_LT(r.pending_out_bytes(), 64u * 1024);

  // Drain: every admitted request's response must eventually arrive (the
  // pause resumes below half the watermark; nothing was dropped).
  ::fcntl(cfd, F_SETFL, fl);  // back to blocking reads
  std::uint64_t got = 0;
  while (got < sent) {
    const auto f = read_raw_frame(cfd);
    ASSERT_FALSE(f.empty()) << "connection died after " << got;
    if (f[0] == static_cast<std::uint8_t>(codec::MsgType::kClientResp))
      ++got;
  }
  EXPECT_TRUE(wait_until([&r] { return !r.read_paused(0); }));
  ::close(cfd);
}

}  // namespace
}  // namespace gdur::front

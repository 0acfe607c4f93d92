#include "front/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "obs/stats.h"

namespace gdur::front {

namespace {

constexpr std::uint64_t kListenerBit = 1ull << 63;
constexpr std::size_t kHdr = net::kFrameHeader;
constexpr int kMaxEvents = 128;
constexpr int kMaxIov = 64;
// TCP keepalive for accepted connections: a wedged client host must not pin
// a session forever.
constexpr int kKeepaliveIdleS = 30;
constexpr int kKeepaliveIntervalS = 5;
constexpr int kKeepaliveCount = 3;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Reactor::Reactor(ReactorConfig cfg) : cfg_(cfg) {
  if (::pipe(wake_pipe_) != 0) {
    GDUR_ERROR("front: pipe() failed: %s", std::strerror(errno));
    wake_pipe_[0] = wake_pipe_[1] = -1;
    return;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
}

Reactor::~Reactor() {
  stop();
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
  {
    MutexLock lock(&conns_mu_);
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
    }
  }
  for (int lfd : listeners_) ::close(lfd);
}

int Reactor::add_connection(int fd) {
  set_nonblocking(fd);
  auto c = std::make_unique<Conn>();
  c->fd = fd;
  int id;
  {
    MutexLock lock(&conns_mu_);
    conns_.push_back(std::move(c));
    id = static_cast<int>(conns_.size()) - 1;
  }
  // Registration with the backend happens on the reactor thread at the next
  // control drain (immediately for pre-start adds: start() arms everything).
  mark_dirty(id);
  wake();
  return id;
}

void Reactor::add_listener(int fd) {
  set_nonblocking(fd);
  listeners_.push_back(fd);
}

Reactor::Conn* Reactor::conn_at(int conn_id) const {
  if (conn_id < 0) return nullptr;
  MutexLock lock(&conns_mu_);
  if (static_cast<std::size_t>(conn_id) >= conns_.size()) return nullptr;
  return conns_[static_cast<std::size_t>(conn_id)].get();
}

void Reactor::start() {
  if (running_ || wake_pipe_[0] < 0) return;
  epfd_ = ::epoll_create1(0);
  if (epfd_ < 0)
    throw std::runtime_error(std::string("front: epoll_create1 failed: ") +
                             std::strerror(errno));
  {
    MutexLock lock(&ctl_mu_);
    stopping_ = false;
  }
  running_ = true;
  thread_ = std::thread([this] { run_epoll(); });
}

void Reactor::stop() {
  if (!running_) return;
  {
    MutexLock lock(&ctl_mu_);
    stopping_ = true;
  }
  wake();
  thread_.join();
  running_ = false;
  ::close(epfd_);
  epfd_ = -1;
}

void Reactor::wake() {
  if (wake_pipe_[1] < 0) return;
  const char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void Reactor::mark_dirty(int conn_id) {
  MutexLock lock(&ctl_mu_);
  dirty_.push_back(conn_id);
}

void Reactor::send_frame(int conn_id, std::vector<std::uint8_t> body) {
  Conn* c = conn_at(conn_id);
  if (c == nullptr) return;
  if (body.size() > net::kMaxFrame) {
    GDUR_ERROR("front: refusing oversized frame (%zu bytes)", body.size());
    return;
  }
  const std::uint64_t total = body.size() + kHdr;
  {
    MutexLock lock(&c->out_mu);
    // mark_dead sets `dead` under this lock before its final clear: a frame
    // checked in here is either flushed or abandoned by it, never stranded.
    if (c->dead.load(std::memory_order_relaxed)) return;
    OutMsg m;
    m.hdr = net::frame_header(static_cast<std::uint32_t>(body.size()));
    m.body = std::move(body);  // zero-copy: gathered into writev later
    c->out.push_back(std::move(m));
    c->out_bytes.fetch_add(total, std::memory_order_relaxed);
    queued_bytes_.fetch_add(total, std::memory_order_relaxed);
  }
  mark_dirty(conn_id);
  wake();
}

void Reactor::close_soon(int conn_id) {
  Conn* c = conn_at(conn_id);
  if (c == nullptr) return;
  // The dirty pass flushes the connection and closes it once drained.
  c->close_after_flush.store(true, std::memory_order_relaxed);
  mark_dirty(conn_id);
  wake();
}

bool Reactor::read_paused(int conn_id) const {
  const Conn* c = conn_at(conn_id);
  return c != nullptr && c->auto_paused.load(std::memory_order_relaxed);
}

bool Reactor::wants_read(const Conn& c) const {
  return !c.dead.load(std::memory_order_relaxed) &&
         !c.close_after_flush.load(std::memory_order_relaxed) &&
         !c.auto_paused.load(std::memory_order_relaxed);
}

bool Reactor::wants_write(Conn& c) {
  if (c.dead.load(std::memory_order_relaxed)) return false;
  MutexLock lock(&c.out_mu);
  return !c.out.empty();
}

void Reactor::update_interest(Conn& c, int conn_id) {
  if (c.dead.load(std::memory_order_relaxed) || c.fd < 0) return;
  // Output watermark: a peer that stops draining its responses gets its
  // reads parked until the backlog halves — server memory stays bounded no
  // matter how fast the peer submits (the never-reading-client contract).
  if (cfg_.pause_read_at > 0) {
    const std::uint64_t out = c.out_bytes.load(std::memory_order_relaxed);
    const bool paused = c.auto_paused.load(std::memory_order_relaxed);
    if (!paused && out > cfg_.pause_read_at) {
      c.auto_paused.store(true, std::memory_order_relaxed);
    } else if (paused && out < cfg_.pause_read_at / 2) {
      c.auto_paused.store(false, std::memory_order_relaxed);
    }
  }
  std::uint32_t ev = 0;
  if (wants_read(c)) ev |= EPOLLIN;
  if (wants_write(c)) ev |= EPOLLOUT;
  if (ev == c.armed_events) return;
  epoll_event e{};
  e.events = ev;
  e.data.u64 = static_cast<std::uint64_t>(conn_id);
  const int op =
      c.armed_events == 0 && !c.in_epoll_once ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  if (::epoll_ctl(epfd_, op, c.fd, &e) == 0) {
    c.in_epoll_once = true;
    c.armed_events = ev;
  }
}

void Reactor::drain_control() {
  {
    MutexLock lock(&ctl_mu_);
    dirty_scratch_.swap(dirty_);
  }
  for (int id : dirty_scratch_) {
    Conn* c = conn_at(id);
    if (c == nullptr || c->dead.load(std::memory_order_relaxed)) continue;
    // Opportunistic flush so a send queued between waits does not pay a
    // full wait-timeout of latency.
    if (!flush_writable(*c)) {
      mark_dead(*c, id);
      continue;
    }
    if (c->close_after_flush.load(std::memory_order_relaxed)) {
      bool empty;
      {
        MutexLock lock(&c->out_mu);
        empty = c->out.empty();
      }
      if (empty) {
        mark_dead(*c, id);
        continue;
      }
    }
    update_interest(*c, id);
  }
  dirty_scratch_.clear();
}

void Reactor::run_epoll() {
  {
    // Arm the wake pipe and listeners once.
    epoll_event e{};
    e.events = EPOLLIN;
    e.data.u64 = kListenerBit | 0xffffffffull;  // wake pipe sentinel
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_pipe_[0], &e);
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      epoll_event le{};
      le.events = EPOLLIN;
      le.data.u64 = kListenerBit | static_cast<std::uint64_t>(i);
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listeners_[i], &le);
    }
  }
  epoll_event evs[kMaxEvents];
  for (;;) {
    {
      MutexLock lock(&ctl_mu_);
      if (stopping_) return;
    }
    drain_control();
    const int rc = ::epoll_wait(epfd_, evs, kMaxEvents, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // gdur-analyze: allow(gdur-hotpath-reachability) fatal exit path: the
      // log formatter allocates once and the loop returns immediately after.
      GDUR_ERROR("front: epoll_wait failed: %s", std::strerror(errno));
      return;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (stats_ != nullptr) stats_->record(obs::Counter::kLoopWakeups);
    for (int i = 0; i < rc; ++i) {
      const std::uint64_t key = evs[i].data.u64;
      if (key & kListenerBit) {
        const std::uint64_t idx = key & ~kListenerBit;
        if (idx == 0xffffffffull) {
          char buf[64];
          while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
          }
        } else {
          handle_listener(listeners_[static_cast<std::size_t>(idx)]);
        }
        continue;
      }
      const int id = static_cast<int>(key);
      Conn* c = conn_at(id);
      if (c == nullptr || c->dead.load(std::memory_order_relaxed)) continue;
      const std::uint32_t ev = evs[i].events;
      if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) handle_readable(*c, id);
      if (!c->dead.load(std::memory_order_relaxed) && (ev & EPOLLOUT)) {
        if (!flush_writable(*c)) {
          mark_dead(*c, id);
          continue;
        }
      }
      if (!c->dead.load(std::memory_order_relaxed)) {
        if (c->close_after_flush.load(std::memory_order_relaxed)) {
          bool empty;
          {
            MutexLock lock(&c->out_mu);
            empty = c->out.empty();
          }
          if (empty) {
            mark_dead(*c, id);
            continue;
          }
        }
        update_interest(*c, id);
      }
    }
  }
}
void Reactor::handle_listener(int lfd) {
  for (;;) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      GDUR_WARN("front: accept failed: %s", std::strerror(errno));
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one);
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &kKeepaliveIdleS,
                 sizeof kKeepaliveIdleS);
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &kKeepaliveIntervalS,
                 sizeof kKeepaliveIntervalS);
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &kKeepaliveCount,
                 sizeof kKeepaliveCount);
    if (cfg_.sndbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.sndbuf,
                   sizeof cfg_.sndbuf);
    const int id = add_connection(fd);
    Conn* c = conn_at(id);
    if (c != nullptr) update_interest(*c, id);  // reactor thread: arm now
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (on_accept_) on_accept_(id);
  }
}

void Reactor::handle_readable(Conn& c, int conn_id) {
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer closed or hard error.
    mark_dead(c, conn_id);
    return;
  }
  // Extract complete frames.
  while (c.in.size() - c.in_off >= kHdr) {
    const std::uint32_t len = net::frame_length(c.in.data() + c.in_off);
    if (len > net::kMaxFrame) {
      GDUR_ERROR("front: oversized frame (%u bytes), dropping conn", len);
      mark_dead(c, conn_id);
      return;
    }
    if (c.in.size() - c.in_off < kHdr + len) break;
    std::vector<std::uint8_t> frame(c.in.begin() + c.in_off + kHdr,
                                    c.in.begin() + c.in_off + kHdr + len);
    c.in_off += kHdr + len;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (on_frame_) on_frame_(conn_id, std::move(frame));
    if (c.dead.load(std::memory_order_relaxed)) return;  // handler closed it
  }
  if (c.in_off > 0 && c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > (1u << 16)) {
    c.in.erase(c.in.begin(), c.in.begin() + c.in_off);
    c.in_off = 0;
  }
}

bool Reactor::flush_writable(Conn& c) {
  MutexLock lock(&c.out_mu);
  while (!c.out.empty()) {
    // Gather up to kMaxIov segments (header + body interleaved) into one
    // writev: bodies are the senders' buffers, never re-copied.
    iovec iov[kMaxIov];
    int niov = 0;
    for (auto& m : c.out) {
      if (niov >= kMaxIov - 1) break;
      const std::size_t body_off = m.off > kHdr ? m.off - kHdr : 0;
      if (m.off < kHdr) {
        iov[niov].iov_base = m.hdr.data() + m.off;
        iov[niov].iov_len = kHdr - m.off;
        ++niov;
      }
      if (m.body.size() > body_off) {
        iov[niov].iov_base = m.body.data() + body_off;
        iov[niov].iov_len = m.body.size() - body_off;
        ++niov;
      }
    }
    if (niov == 0) {
      c.out.pop_front();
      continue;
    }
    const ssize_t n = ::writev(c.fd, iov, niov);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      // EPIPE etc.: peer gone. Abandoned bytes count as flushed so the
      // watchdog's pending-output gauge returns to zero.
      std::uint64_t abandoned = 0;
      for (const auto& m : c.out) abandoned += kHdr + m.body.size() - m.off;
      flushed_bytes_.fetch_add(abandoned, std::memory_order_relaxed);
      c.out_bytes.fetch_sub(abandoned, std::memory_order_relaxed);
      c.out.clear();
      return false;
    }
    flushed_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
    c.out_bytes.fetch_sub(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && !c.out.empty()) {
      OutMsg& m = c.out.front();
      const std::size_t sz = kHdr + m.body.size() - m.off;
      if (left >= sz) {
        left -= sz;
        c.out.pop_front();
      } else {
        m.off += left;
        left = 0;
      }
    }
  }
  return true;
}

void Reactor::mark_dead(Conn& c, int conn_id) {
  {
    MutexLock lock(&c.out_mu);
    if (c.dead.load(std::memory_order_relaxed)) return;
    // Under out_mu: send_frame checks the mark under the same lock, so no
    // frame is queued after the clear below.
    c.dead.store(true, std::memory_order_relaxed);
    std::uint64_t abandoned = 0;
    for (const auto& m : c.out) abandoned += kHdr + m.body.size() - m.off;
    flushed_bytes_.fetch_add(abandoned, std::memory_order_relaxed);
    c.out_bytes.fetch_sub(abandoned, std::memory_order_relaxed);
    c.out.clear();
  }
  if (c.fd >= 0) {
    ::close(c.fd);  // epoll interest evaporates with the fd
    c.fd = -1;
  }
  if (on_close_) on_close_(conn_id);
}

}  // namespace gdur::front

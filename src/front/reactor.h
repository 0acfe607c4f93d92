// front::Reactor — the socket engine of the production front door.
//
// One thread multiplexes its registered sockets with level-triggered
// epoll: the inter-site mesh has one Reactor, and every FrontServer has
// one for its client connections. Frames are length-prefixed as
// net/frame.h defines (first body byte is the codec::MsgType tag; the
// reactor is agnostic).
//
//   * Listening sockets with an accept state machine: new connections get
//     non-blocking mode, TCP_NODELAY and keepalive, then an accept handler
//     runs on the reactor thread.
//   * Zero-copy framing: send_frame takes the body by value (move it in);
//     the 4-byte header lives in the queue node and the body is never
//     re-copied — flushes gather header + body iovecs into one writev().
//   * Read-side backpressure: a per-connection pending-output watermark
//     auto-pauses reads from peers that do not drain their responses — a
//     never-reading client cannot grow server memory.
//   * Close handling: peers disappearing mid-run invoke a close handler on
//     the reactor thread exactly once; close_soon() flushes pending output
//     then closes. Frames sent to a closed connection are dropped.
//
// TCP gives per-connection byte ordering and no duplication, and the
// reactor extracts frames in arrival order — together that is the
// exactly-once, FIFO-per-link delivery contract the protocol layer was
// built against.
//
// Other threads reach the reactor thread through one control channel: a
// list of dirty connection ids (new registration, queued output, close
// request) drained before every wait. No caller queues a closure for the
// reactor thread; it runs only the handlers set before start().
//
// Hot-path contract (gdur-lint front/dispatch-alloc): the event demux loop
// — wait, interest re-arm, readiness fan-out — performs no allocation and
// no blocking syscall; buffers are preallocated and growth is amortized
// inside the per-connection read/write handlers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/thread_annotations.h"
#include "net/frame.h"

namespace gdur::obs {
class StatsSlot;
}

namespace gdur::front {

struct ReactorConfig {
  /// Per-connection pending-output watermark: above it the reactor stops
  /// reading that connection until output drains below half (bounds server
  /// memory under a never-reading peer). 0 = never auto-pause — inter-site
  /// links rely on that.
  std::size_t pause_read_at = 0;
  /// SO_SNDBUF for accepted connections (0 = kernel default). Caps how much
  /// backlog the kernel absorbs before the pause_read_at watermark engages;
  /// the backpressure tests pin it to make the bound observable.
  int sndbuf = 0;
};

class Reactor {
 public:
  /// Called on the reactor thread for every complete frame.
  using FrameHandler =
      std::function<void(int conn_id, std::vector<std::uint8_t> frame)>;
  /// Called on the reactor thread after an inbound connection is accepted
  /// and registered.
  using AcceptHandler = std::function<void(int conn_id)>;
  /// Called on the reactor thread exactly once when a connection dies
  /// (peer close, hard error, oversized frame) or close_soon() completes.
  using CloseHandler = std::function<void(int conn_id)>;

  explicit Reactor(ReactorConfig cfg = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers an established socket; the reactor takes ownership of the fd
  /// and switches it to non-blocking. Thread-safe (callers before start()
  /// or the reactor thread itself via the accept path; any thread works).
  /// Returns the connection id. Ids are never reused within a run.
  int add_connection(int fd);

  /// Registers a listening socket. Must be called before start(). Accepted
  /// connections get TCP_NODELAY, keepalive and the configured SO_SNDBUF,
  /// and are announced through the accept handler.
  void add_listener(int fd);

  void set_frame_handler(FrameHandler h) { on_frame_ = std::move(h); }
  void set_accept_handler(AcceptHandler h) { on_accept_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }

  /// Starts the reactor thread. Throws std::runtime_error (with the errno
  /// text) when the epoll instance cannot be created.
  void start();
  /// Idempotent. Closes every connection and joins the reactor thread.
  void stop();

  /// Queues one frame (length prefix added here) for `conn_id`, taking the
  /// body by value — move it in and it is never copied again; the flush
  /// path gathers header + body with writev. Thread-safe; never blocks on
  /// the socket. Frames to closed or unknown connections are dropped
  /// uncounted, and a body longer than net::kMaxFrame is refused.
  void send_frame(int conn_id, std::vector<std::uint8_t> body);

  /// Flushes the output queued for `conn_id` before this call, then closes
  /// it (the close handler runs once). Thread-safe.
  void close_soon(int conn_id);

  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Lock-free gauges for the stall watchdog. A healthy reactor wakes at
  /// least every wait timeout (100 ms), so the probe pair is (progress =
  /// wakeups, pending = unflushed output bytes): a reactor thread wedged
  /// inside a frame handler freezes the wakeup counter while queued bytes
  /// pile up.
  [[nodiscard]] std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pending_out_bytes() const {
    const std::uint64_t q = queued_bytes_.load(std::memory_order_relaxed);
    const std::uint64_t f = flushed_bytes_.load(std::memory_order_relaxed);
    return q > f ? q - f : 0;
  }
  /// True while the auto-pause watermark has this connection's reads parked
  /// (test hook for the bounded-memory contract).
  [[nodiscard]] bool read_paused(int conn_id) const;

  /// Optional stats slot: the reactor thread records Counter::kLoopWakeups
  /// per wait return. Set before start(); not owned.
  void set_stats(obs::StatsSlot* s) { stats_ = s; }

 private:
  /// One queued outbound frame: the length prefix lives here, the body is
  /// the caller's buffer moved in — never re-copied, only gathered into
  /// writev iovecs.
  struct OutMsg {
    net::FrameHeader hdr;
    std::vector<std::uint8_t> body;
    std::size_t off = 0;  // bytes of hdr+body already written
  };

  struct Conn {
    int fd = -1;  // reactor thread only
    /// Set once, by the reactor thread under out_mu (mark_dead): a sender
    /// that checks it under out_mu never queues behind the final clear.
    /// The reactor thread reads it lock-free.
    std::atomic<bool> dead{false};
    /// Any thread sets it (close_soon); the reactor thread reads it.
    std::atomic<bool> close_after_flush{false};
    /// Written by the reactor thread only (the output watermark tripped)
    /// and read by read_paused() too.
    std::atomic<bool> auto_paused{false};
    bool in_epoll_once = false;      // reactor thread: registered with epoll
    std::uint32_t armed_events = 0;  // reactor thread: last epoll interest
    std::vector<std::uint8_t> in;    // reactor thread only
    std::size_t in_off = 0;          // parsed prefix of `in`
    std::atomic<std::uint64_t> out_bytes{0};
    Mutex out_mu;
    std::deque<OutMsg> out GUARDED_BY(out_mu);
  };

  // Hot roots (gdur-hotpath-reachability, DESIGN.md §16): the epoll demux
  // loop and its re-arm helpers must stay allocation- and sleep-free.
  GDUR_HOT_PATH("noalloc,nosleep") void run_epoll();
  GDUR_HOT_PATH("noalloc,nosleep")
  void drain_control();  // dirty-connection pass (reactor thread)
  // Boundaries: accept and read paths grow connection state by design
  // (session setup, amortized input-buffer growth, frame extraction).
  GDUR_HOT_BOUNDARY void handle_listener(int lfd);
  GDUR_HOT_BOUNDARY void handle_readable(Conn& c, int conn_id);
  /// Returns false on a fatal write error (caller should mark_dead).
  bool flush_writable(Conn& c) EXCLUDES(c.out_mu);
  void mark_dead(Conn& c, int conn_id) EXCLUDES(c.out_mu);
  GDUR_HOT_PATH("noalloc,nosleep") void update_interest(Conn& c, int conn_id);
  [[nodiscard]] bool wants_read(const Conn& c) const;
  [[nodiscard]] bool wants_write(Conn& c) EXCLUDES(c.out_mu);
  void mark_dirty(int conn_id);
  void wake();
  [[nodiscard]] Conn* conn_at(int conn_id) const;

  ReactorConfig cfg_;
  FrameHandler on_frame_;
  AcceptHandler on_accept_;
  CloseHandler on_close_;

  /// Connection table: append-only (ids stable, entries tombstoned on
  /// death), deque so pointers survive growth. Guarded for the structure;
  /// element access after lookup relies on Conn's own synchronization.
  mutable Mutex conns_mu_;
  std::deque<std::unique_ptr<Conn>> conns_ GUARDED_BY(conns_mu_);

  std::vector<int> listeners_;  // set before start()

  /// The control channel: connections needing registration, a flush, an
  /// interest re-arm or a close, drained before every wait.
  Mutex ctl_mu_;
  std::vector<int> dirty_ GUARDED_BY(ctl_mu_);
  bool stopping_ GUARDED_BY(ctl_mu_) = false;

  int epfd_ = -1;  // open while running
  /// Lives as long as the Reactor, so a wake() racing stop() writes to the
  /// pipe, not to a closed (or reused) descriptor. Written only by the
  /// constructor; {-1, -1} if pipe() failed.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> wakeups_{0};        // reactor thread writes
  std::atomic<std::uint64_t> queued_bytes_{0};   // senders (send_frame)
  std::atomic<std::uint64_t> flushed_bytes_{0};  // reactor thread writes
  obs::StatsSlot* stats_ = nullptr;  // set before start()
  bool running_ = false;  // control thread (start/stop callers) only
  std::thread thread_;

  // Preallocated scratch for the demux loop (no allocation there).
  std::vector<int> dirty_scratch_;
};

}  // namespace gdur::front

// Allocation-free per-request metadata for the front door's hot path.
//
// The request dispatch path (reactor frame handler → site mailbox →
// response) runs thousands of times per second; allocating a fresh
// metadata node per request would put malloc on every latency sample.
// Two small tools avoid that:
//
//   Arena   — a bump allocator over chained fixed-size blocks. reset()
//             recycles every block without returning memory to the
//             system, so steady-state allocation cost is a pointer bump.
//   Pool<T> — a typed free-list on top of operator new: nodes released
//             with put() are handed back by get() without touching the
//             allocator. Steady state (in-flight window full) allocates
//             nothing.
//
// Neither is thread-safe; each owner confines its instance to one thread
// (the front server keeps its pool on the site mailbox thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace gdur::front {

class Arena {
 public:
  explicit Arena(std::size_t block_bytes = 16 * 1024)
      : block_bytes_(block_bytes) {}

  /// Returns `n` bytes aligned for any scalar type. Never fails (grows by
  /// whole blocks); oversized requests get a dedicated block.
  void* alloc(std::size_t n) {
    n = (n + alignof(std::max_align_t) - 1) &
        ~(alignof(std::max_align_t) - 1);
    if (cur_ == blocks_.size() || off_ + n > blocks_[cur_].size) {
      advance(n);
    }
    void* p = blocks_[cur_].data.get() + off_;
    off_ += n;
    return p;
  }

  template <typename T, typename... Args>
  T* make(Args&&... args) {
    return new (alloc(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Recycles every block. Objects placed in the arena must be trivially
  /// destructible (or already destroyed) — reset() runs no destructors.
  void reset() {
    cur_ = 0;
    off_ = 0;
  }

  [[nodiscard]] std::size_t blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  void advance(std::size_t need) {
    // Leave the (full) active block, then move to the next recycled block
    // that fits, else append one.
    if (cur_ < blocks_.size()) ++cur_;
    while (cur_ < blocks_.size() && blocks_[cur_].size < need) ++cur_;
    if (cur_ == blocks_.size()) {
      const std::size_t sz = need > block_bytes_ ? need : block_bytes_;
      blocks_.push_back({std::make_unique<std::uint8_t[]>(sz), sz});
    }
    off_ = 0;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;  // blocks_[cur_] is the active block (if any)
  std::size_t off_ = 0;
};

/// Typed free-list: get() reuses released nodes, steady state allocates
/// nothing. Nodes are value-initialized on first allocation only — callers
/// must fully re-initialize recycled nodes. The pool owns every node it
/// allocated, so one still out at teardown (a request whose transaction
/// was in flight when the cluster stopped) is freed with the pool.
template <typename T>
class Pool {
 public:
  T* get() {
    if (free_.empty()) {
      nodes_.push_back(std::make_unique<T>());
      free_.push_back(nodes_.back().get());
    }
    T* p = free_.back();
    free_.pop_back();
    ++live_;
    return p;
  }

  void put(T* p) {
    --live_;
    free_.push_back(p);
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<T>> nodes_;
  std::vector<T*> free_;
  std::size_t live_ = 0;
};

}  // namespace gdur::front

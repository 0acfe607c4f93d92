// Allocation-free per-request metadata for the front door's hot path.
//
// The request dispatch path (reactor frame handler → site mailbox →
// response) runs thousands of times per second; allocating a fresh
// metadata node per request would put malloc on every latency sample.
// Pool<T> is a typed free-list on top of operator new: nodes released with
// put() are handed back by get() without touching the allocator, so the
// steady state (in-flight window full) allocates nothing.
//
// It is not thread-safe; its owner confines it to one thread (the front
// server keeps its pool on the site mailbox thread).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace gdur::front {

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

// Task — the one move-only callable behind every scheduled hop.
//
// The simulator runs tens of millions of closures per figure pass, and
// std::function heap-allocates every closure over 16 bytes. A Task keeps up
// to kInlineBytes of closure in the object itself — enough for the engine's
// hot closures, such as Cluster::ship's message hop and the serial
// certification wrapper — and only larger ones go to the heap. A Task is
// never copied, so a closure may own move-only state.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gdur {

class Task {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a closure of type F is stored inline, without allocating.
  template <class F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() = default;

  /// Wraps any `void()` callable (implicit, like std::function's).
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Task> &&
                                     std::is_invocable_v<D&>>>
  Task(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInline<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeap<D>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) { take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      take(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Runs the closure; the task must not be empty.
  void operator()() { ops_->invoke(buf_); }

  /// Moves the closure into a std::function, for queues that keep those (the
  /// live mailbox and timer wheel). A copyable closure moves in as itself,
  /// costing what it did as a std::function; a move-only one is shared. The
  /// task must not be empty.
  [[nodiscard]] std::function<void()> into_function() && {
    return ops_->into_function(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs the closure at `to` and destroys it at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    /// nullptr when the closure has nothing to destroy.
    void (*destroy)(void* buf) noexcept;
    std::function<void()> (*into_function)(void* buf);
  };

  template <class D>
  static D* as(void* buf) {
    return std::launder(static_cast<D*>(buf));
  }
  template <class D>
  static void invoke_inline(void* buf) {
    (*as<D>(buf))();
  }
  template <class D>
  static void relocate_inline(void* from, void* to) noexcept {
    ::new (to) D(std::move(*as<D>(from)));
    as<D>(from)->~D();
  }
  template <class D>
  static void destroy_inline(void* buf) noexcept {
    as<D>(buf)->~D();
  }
  template <class D>
  static std::function<void()> function_of(D& f) {
    if constexpr (std::is_copy_constructible_v<D>)
      return std::move(f);
    else
      return [p = std::make_shared<D>(std::move(f))] { (*p)(); };
  }
  template <class D>
  static std::function<void()> into_function_inline(void* buf) {
    return function_of(*as<D>(buf));
  }
  template <class D>
  static std::function<void()> into_function_heap(void* buf) {
    return function_of(**as<D*>(buf));
  }
  template <class D>
  static void relocate_heap(void* from, void* to) noexcept {
    ::new (to) D*(*as<D*>(from));
  }
  template <class D>
  static void invoke_heap(void* buf) {
    (**as<D*>(buf))();
  }
  template <class D>
  static void destroy_heap(void* buf) noexcept {
    delete *as<D*>(buf);
  }

  template <class D>
  static constexpr Ops kInline{
      &invoke_inline<D>, &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
      &into_function_inline<D>};
  /// A heap closure is owned through the pointer held in the buffer.
  template <class D>
  static constexpr Ops kHeap{&invoke_heap<D>, &relocate_heap<D>,
                             &destroy_heap<D>, &into_function_heap<D>};

  /// Moves `other`'s closure here (ops_ already copied) and empties it.
  void take(Task& other) noexcept {
    if (ops_ == nullptr) return;
    ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Task) == Task::kInlineBytes + sizeof(void*));

}  // namespace gdur

// Clang Thread Safety Analysis annotations + an annotated Mutex/MutexLock.
//
// The multi-threaded surface of the repo (src/live, obs::TraceRecorder and
// the live runtime's shared engine state) declares its locking discipline
// with these macros so the compiler — not a lucky TSan interleaving — proves
// every guarded field is touched with the right mutex held. Build with
//
//   cmake -B build-analyze -DGDUR_ANALYZE=ON          (requires Clang)
//
// to compile the tree under -Wthread-safety -Werror=thread-safety. Under
// GCC (or without GDUR_ANALYZE) every macro expands to nothing and the
// wrappers below are zero-overhead veneers over the std primitives; the
// same discipline is then checked textually by tools/gdur_lint's
// thread/guarded-by rule, which understands these exact annotations.
//
// Annotation vocabulary (Clang TSA spelling):
//   GUARDED_BY(mu)    field: access requires `mu` held
//   PT_GUARDED_BY(mu) pointer field: the pointee requires `mu` held
//   REQUIRES(mu)      function: caller must hold `mu`
//   ACQUIRE(mu) / RELEASE(mu)   function acquires / releases `mu`
//   EXCLUDES(mu)      function: caller must NOT hold `mu` (non-reentrant)
//   NO_THREAD_SAFETY_ANALYSIS   opt out (needs a gdur-lint allow + reason)
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define GDUR_TSA(x) __attribute__((x))
#endif
#endif
#ifndef GDUR_TSA
#define GDUR_TSA(x)  // not Clang: annotations compile away
#endif

#define CAPABILITY(x) GDUR_TSA(capability(x))
#define SCOPED_CAPABILITY GDUR_TSA(scoped_lockable)
#define GUARDED_BY(x) GDUR_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) GDUR_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) GDUR_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) GDUR_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) GDUR_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) GDUR_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) GDUR_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) GDUR_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) GDUR_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) GDUR_TSA(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) GDUR_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) GDUR_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) GDUR_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) GDUR_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS GDUR_TSA(no_thread_safety_analysis)

namespace gdur {

class CondVar;

/// std::mutex with the `capability` attribute so GUARDED_BY/REQUIRES
/// declarations can name it. Same size and cost as std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock over an annotated Mutex (the TSA "scoped capability" idiom),
/// held for its whole scope; condition waits go through CondVar.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : lk_(mu->mu_) {}
  ~MutexLock() RELEASE() = default;  // std::unique_lock unlocks if held

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable paired with MutexLock. Waiting releases and reacquires
/// the lock internally; TSA treats the capability as held across the wait,
/// which matches the caller-visible contract.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(MutexLock& lock) { cv_.wait(lock.lk_); }

  template <class Pred>
  void wait(MutexLock& lock, Pred pred) {
    cv_.wait(lock.lk_, std::move(pred));
  }

  /// Returns at `tp`, on a notify, or spuriously: callers re-check.
  template <class Clock, class Duration>
  void wait_until(MutexLock& lock,
                  const std::chrono::time_point<Clock, Duration>& tp) {
    cv_.wait_until(lock.lk_, tp);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace gdur

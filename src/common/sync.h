// Annotated synchronization primitives for clang thread-safety analysis.
//
// libstdc++ ships std::mutex without capability annotations, so code locking
// a raw std::mutex is invisible to `-Wthread-safety`. These thin wrappers
// carry the annotations (src/common/thread_annotations.h) and compile to the
// same code: Mutex is a std::mutex, MutexLock is a lock_guard, CondVar is a
// std::condition_variable that waits on an already-held Mutex.
//
// Usage pattern — shared mutable state is a member guarded by a member
// Mutex, and the analysis proves every access holds it:
//
//   class Queue {
//    public:
//     void Push(Item item) {
//       const MutexLock lock(&mu_);
//       items_.push_back(std::move(item));
//       cv_.NotifyOne();
//     }
//    private:
//     Mutex mu_;
//     CondVar cv_;
//     std::vector<Item> items_ BR_GUARDED_BY(mu_);
//   };
//
// Annotations attach to class members and globals, not function locals, so
// state threads share via lambda captures must be hoisted into a small
// struct/class for the analysis to see it (see the campaign engine's
// Mailbox in src/campaign/engine.cc).

#ifndef SRC_COMMON_SYNC_H_
#define SRC_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace byterobust {

// std::mutex with capability annotations. Non-reentrant.
class BR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BR_ACQUIRE() { mu_.lock(); }
  void Unlock() BR_RELEASE() { mu_.unlock(); }
  bool TryLock() BR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over a Mutex (a lock_guard the analysis understands).
class BR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) BR_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() BR_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable waiting on an already-held Mutex. Wait() atomically
// releases the mutex while blocked and reacquires it before returning, so
// callers annotate with BR_REQUIRES(mu) and the guarded-state invariant holds
// on both sides of the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // No predicate overload on purpose: a predicate lambda is a separate
  // function to the analysis, so its guarded reads would not see the held
  // mutex. Write the standard `while (!condition) cv.Wait(&mu);` loop —
  // the analysis checks the condition's accesses directly.
  void Wait(Mutex* mu) BR_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still holds the mutex, as annotated
  }

  // Timed wait: returns false if `seconds` elapsed without a notification.
  // Same contract as Wait() — mutex held on entry and on return, spurious
  // wakeups possible, so callers loop on their condition and their own
  // deadline (see the campaign coordinator's watchdog in
  // src/campaign/engine.cc).
  bool WaitFor(Mutex* mu, double seconds) BR_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::duration<double>(seconds));
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace byterobust

#endif  // SRC_COMMON_SYNC_H_

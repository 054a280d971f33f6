#ifndef SCIDB_COMMON_MUTEX_H_
#define SCIDB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace scidb {

// std::mutex with Clang thread-safety annotations. libstdc++'s std::mutex
// carries no capability attributes, so -Wthread-safety cannot see through
// it; this thin wrapper is what GUARDED_BY(mu_) declarations in the
// engine refer to. It satisfies BasicLockable, so CondVar (a
// std::condition_variable_any) waits on it directly.
//
// Lock order is checked statically by staticcheck's lock-order pass and at
// runtime by TSan's deadlock detector in the TSan build (DESIGN.md §9);
// Mutex itself adds nothing to std::mutex, in every build type.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock over Mutex, the project's std::lock_guard replacement for
// annotated code paths.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits on the annotated Mutex. wait_for takes
// the Mutex itself (BasicLockable); the lock is held on entry and on
// return, which matches what the thread-safety analysis assumes for a
// function that neither acquires nor releases.
using CondVar = std::condition_variable_any;

}  // namespace scidb

#endif  // SCIDB_COMMON_MUTEX_H_

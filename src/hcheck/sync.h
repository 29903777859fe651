// hcheck::Mutex / hcheck::CondVar — std::mutex / std::condition_variable
// stand-ins on the hcheck scheduler.
//
// Modeling scope (DESIGN.md): a mutex is mutual exclusion plus a
// happens-before edge from each unlock to the next lock — nothing more.  The
// condition variable has *no spurious wakeups*: a wait ends only when a
// notify targets it.  That is deliberate: a real condvar may spuriously wake
// and paper over a lost signal; the model keeps the program honest, so a
// missing notify deterministically becomes a deadlock the checker reports.

#ifndef HCHECK_SYNC_H_
#define HCHECK_SYNC_H_

#include <mutex>

#include "src/hcheck/atomic.h"
#include "src/hcheck/runtime.h"

namespace hcheck {

class Mutex {
 public:
  Mutex() { s_ = detail::RequireRuntime("Mutex constructed").NewMutex(); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return;
    }
    rt->SchedulePoint("mutex.lock");
    rt->MutexLock(*s_);
  }

  bool try_lock() {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return false;
    }
    rt->SchedulePoint("mutex.try_lock");
    return rt->MutexTryLock(*s_);
  }

  // Never throws: unlock runs from std::lock_guard's noexcept destructor, so
  // an abort raised at its schedule point (a failure elsewhere, the op
  // budget running out) skips the release and is left to the thread's next
  // schedule point to unwind.
  void unlock() noexcept {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return;
    }
    try {
      rt->SchedulePoint("mutex.unlock");
      rt->MutexUnlock(*s_);
    } catch (const detail::AbortExecution&) {
      // The execution is aborting; the failure is already recorded.
    }
  }

  detail::MutexState* state() { return s_; }

 private:
  detail::MutexState* s_;
};

class CondVar {
 public:
  CondVar() { s_ = detail::RequireRuntime("CondVar constructed").NewCondVar(); }
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<Mutex>& lk) {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return;
    }
    rt->SchedulePoint("cv.wait");
    Mutex* m = lk.mutex();
    rt->CvWait(*s_, *m->state());
    m->lock();  // re-acquire before returning, like std::condition_variable
  }

  void notify_one() {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return;
    }
    rt->SchedulePoint("cv.notify_one");
    rt->CvNotify(*s_, /*all=*/false);
  }

  void notify_all() {
    auto* rt = detail::Runtime::Current();
    if (rt == nullptr || rt->aborting()) {
      return;
    }
    rt->SchedulePoint("cv.notify_all");
    rt->CvNotify(*s_, /*all=*/true);
  }

 private:
  detail::CondVarState* s_;
};

}  // namespace hcheck

#endif  // HCHECK_SYNC_H_

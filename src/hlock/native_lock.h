// The native adapter: one algorithm core from src/hlock/algo/, bound to
// NativeBackend<Platform> and exposed as a BasicLockable (plus try_lock /
// try_lock_for where the core has them).
//
// Every core is written once over the memory-backend concept; this class is
// the only place any of them meets native threads.  Each call builds the
// caller's context from Platform::ThreadId() and runs the core's coroutine
// eagerly to completion (SyncTask), so the backend-visible operations -- and
// under hcheck the schedule points -- are exactly the core's.  StdPlatform
// gives the production locks; hcheck::Platform runs the same instantiation on
// the model checker.  Core-specific statistics are reached through core().
//
// Construction: cores whose algorithm reads the cluster map (CNA, HMCS-T,
// DRW; they declare kClustered) take `procs_per_cluster` first -- native
// hardware gives no topology oracle, so it is a modelling knob (1 = every
// thread its own cluster).  The remaining arguments follow the core's own
// `home` parameter.

#ifndef HLOCK_NATIVE_LOCK_H_
#define HLOCK_NATIVE_LOCK_H_

#include <cstdint>
#include <utility>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/native_backend.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

template <template <class> class CoreT, class Platform = StdPlatform>
class NativeLock {
 public:
  using Backend = algo::NativeBackend<Platform>;
  using Core = CoreT<Backend>;
  static constexpr bool kClustered = requires { Core::kClustered; };

  template <class... Args>
    requires(!kClustered)
  explicit NativeLock(Args&&... args)
      : core_(&backend_, /*home=*/0, std::forward<Args>(args)...) {}

  template <class... Args>
    requires kClustered
  explicit NativeLock(std::uint32_t procs_per_cluster = 1, Args&&... args)
      : backend_(procs_per_cluster),
        core_(&backend_, /*home=*/0, std::forward<Args>(args)...) {}

  NativeLock(const NativeLock&) = delete;
  NativeLock& operator=(const NativeLock&) = delete;

  void lock() {
    typename Backend::Ctx ctx = Self();
    core_.Acquire(ctx).Get();
  }
  void unlock() {
    typename Backend::Ctx ctx = Self();
    core_.Release(ctx).Get();
  }
  bool try_lock()
    requires requires(Core& c, typename Backend::Ctx& x) { c.TryAcquire(x); }
  {
    typename Backend::Ctx ctx = Self();
    return core_.TryAcquire(ctx).Get();
  }

  // Timed acquire: gives up after `budget` spin iterations (the native
  // backend's deadline unit).  Returns false without holding the lock or
  // leaving a queue node behind.
  bool try_lock_for(std::uint64_t budget)
    requires requires(Core& c, typename Backend::Ctx& x, typename Backend::Deadline& d) {
      c.Acquire(x, d);
    }
  {
    typename Backend::Ctx ctx = Self();
    typename Backend::Deadline deadline = backend_.MakeDeadline(ctx, budget);
    return core_.Acquire(ctx, deadline).Get();
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { core_.set_site(site); }

  Core& core() { return core_; }
  const Core& core() const { return core_; }

 protected:
  static typename Backend::Ctx Self() { return typename Backend::Ctx{Platform::ThreadId()}; }

  Backend backend_;
  Core core_;
};

}  // namespace hlock

#endif  // HLOCK_NATIVE_LOCK_H_

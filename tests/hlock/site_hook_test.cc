// Every native lock with a profiling hook records each acquisition and each
// release exactly once: N uncontended lock/unlock pairs, then (where the lock
// has one) M successful try-acquires, give N+M acquisitions and N+M holds,
// none contended.  Pins the bookkeeping that all of them share.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/hlock/bootstrap_locks.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/numa_locks.h"
#include "src/hlock/spin_locks.h"
#include "src/hprof/lock_site.h"

namespace hlock {
namespace {

// Drives one lock type through a uniform lock / unlock / try interface.
template <class L>
struct Driver {
  L lock;
  void Lock() { lock.lock(); }
  void Unlock() { lock.unlock(); }
  static constexpr bool kHasTry =
      requires(L& l) { l.try_lock(); } || requires(L& l) { l.try_lock_for(1); };
  bool TryLock() {
    if constexpr (requires(L& l) { l.try_lock(); }) {
      return lock.try_lock();
    } else {
      return lock.try_lock_for(/*budget=*/1000);
    }
  }
};

// The classic MCS lock takes a caller-owned queue node.
template <>
struct Driver<McsLock> {
  McsLock lock;
  McsLock::QNode node;
  void Lock() { lock.lock(node); }
  void Unlock() { lock.unlock(node); }
  static constexpr bool kHasTry = false;
  bool TryLock() { return false; }
};

template <class L>
class SiteHookTest : public ::testing::Test {};

using HookedLocks =
    ::testing::Types<TtasSpinLock, BackoffSpinLock, McsLock, McsH1Lock, McsH2Lock,
                     McsTryV1Lock, CnaLock, HmcsTLock, FissileLock>;
TYPED_TEST_SUITE(SiteHookTest, HookedLocks);

TYPED_TEST(SiteHookTest, RecordsEveryAcquireAndRelease) {
  constexpr std::uint64_t kPairs = 5;
  constexpr std::uint64_t kTries = 3;
  Driver<TypeParam> d;
  hprof::LockSiteStats site("hook");
  d.lock.set_site(&site);
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    d.Lock();
    d.Unlock();
  }
  EXPECT_EQ(site.acquisitions(), kPairs);
  EXPECT_EQ(site.hold().count(), kPairs);
  std::uint64_t expected = kPairs;
  if constexpr (Driver<TypeParam>::kHasTry) {
    for (std::uint64_t i = 0; i < kTries; ++i) {
      ASSERT_TRUE(d.TryLock());
      d.Unlock();
    }
    expected += kTries;
  }
  EXPECT_EQ(site.acquisitions(), expected);
  EXPECT_EQ(site.hold().count(), expected);
  EXPECT_EQ(site.contended(), 0u);
  EXPECT_EQ(site.max_queue_depth(), 0u);

  // Detached, the lock records nothing more.
  d.lock.set_site(nullptr);
  d.Lock();
  d.Unlock();
  EXPECT_EQ(site.acquisitions(), expected);
}

}  // namespace
}  // namespace hlock

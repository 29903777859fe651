// Property tests for the native locks: mutual exclusion, progress, and
// variant-specific behaviour.  Thread counts are kept modest and all spin
// loops yield at their backoff cap, so these run correctly (if slowly) even
// on a single-core host.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/mcs_locks.h"
#include "src/hlock/spin_locks.h"
#include "src/hprof/lock_site.h"

namespace hlock {
namespace {

// Generic mutual-exclusion stress: `threads` threads each perform `iters`
// critical sections incrementing a plain (non-atomic) counter; any lost
// update or overlap proves a locking bug.
template <typename Lock>
void MutualExclusionStress(Lock& lock, int threads, int iters) {
  std::int64_t counter = 0;
  std::atomic<int> overlap{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        lock.lock();
        if (overlap.fetch_add(1, std::memory_order_relaxed) != 0) {
          overlapped.store(true, std::memory_order_relaxed);
        }
        counter = counter + 1;
        overlap.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(counter, static_cast<std::int64_t>(threads) * iters);
}

constexpr int kThreads = 4;
constexpr int kIters = 2000;

TEST(NativeLocks, TasMutualExclusion) {
  TasSpinLock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, TtasMutualExclusion) {
  TtasSpinLock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, BackoffMutualExclusion) {
  BackoffSpinLock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, TicketMutualExclusion) {
  TicketLock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, McsH1MutualExclusion) {
  McsH1Lock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, McsH2MutualExclusion) {
  McsH2Lock lock;
  MutualExclusionStress(lock, kThreads, kIters);
}

TEST(NativeLocks, ClassicMcsMutualExclusion) {
  McsLock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        McsLock::QNode node;
        lock.lock(node);
        counter = counter + 1;
        lock.unlock(node);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(NativeLocks, UncontendedLockUnlockIsReentrantSafeSequence) {
  // A single thread can acquire and release arbitrarily often (the H1/H2
  // rest-state invariant must be restored every time).
  McsH2Lock lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock();
    lock.unlock();
  }
  SUCCEED();
}

TEST(NativeLocks, H2ReportsRepairsUnderContention) {
  // Deterministic contention: a waiter enqueues while we hold the lock, so
  // our release must find a successor and repair the queue (H2 swaps nil in
  // unconditionally).
  McsH2Lock lock;
  lock.lock();
  std::atomic<bool> about_to_enqueue{false};
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    about_to_enqueue.store(true);
    lock.lock();
    lock.unlock();
    waiter_done.store(true);
  });
  while (!about_to_enqueue.load()) {
    std::this_thread::yield();
  }
  // Give the waiter ample time to swap itself onto the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  EXPECT_GT(lock.core().repairs(), 0u);
}

TEST(NativeLocks, H1RarelyRepairsUncontended) {
  McsH1Lock lock;
  for (int i = 0; i < 1000; ++i) {
    lock.lock();
    lock.unlock();
  }
  EXPECT_EQ(lock.core().repairs(), 0u);
}

TEST(NativeLocks, TryLockOnFreeLockSucceeds) {
  McsH2Lock lock;
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
  TasSpinLock tas;
  EXPECT_TRUE(tas.try_lock());
  EXPECT_FALSE(tas.try_lock());
  tas.unlock();
}

TEST(NativeLocks, LockGuardCompatibility) {
  McsH2Lock lock;
  {
    std::lock_guard<McsH2Lock> guard(lock);
  }
  TicketLock ticket;
  {
    std::lock_guard<TicketLock> guard(ticket);
  }
  SUCCEED();
}

TEST(NativeLocks, TicketTryLockFailsWhileHeld) {
  TicketLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// Profiling hooks on the native locks: counts reconcile with the work done,
// and mutual exclusion is unaffected (the stress helper asserts it).
TEST(NativeLocks, ProfiledTtasRecordsEveryAcquisition) {
  hprof::LockSiteStats site("native/ttas");
  TtasSpinLock lock;
  lock.set_site(&site);
  MutualExclusionStress(lock, kThreads, kIters);
  EXPECT_EQ(site.acquisitions(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(site.hold().count(), site.acquisitions());
  EXPECT_EQ(site.wait().count(), site.acquisitions());
}

TEST(NativeLocks, ProfiledMcsH2RecordsContentionAndHandoffs) {
  hprof::LockSiteStats site("native/mcs-h2");
  McsH2Lock lock;
  lock.set_site(&site);
  MutualExclusionStress(lock, kThreads, kIters);
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(site.acquisitions(), total);
  EXPECT_EQ(site.hold().count(), total);
  // Every owner transition is classified somewhere in the matrix.
  EXPECT_EQ(site.handoffs(hprof::Handoff::kSameProcessor) +
                site.handoffs(hprof::Handoff::kSameCluster) +
                site.handoffs(hprof::Handoff::kCrossCluster),
            total - 1);
}

}  // namespace
}  // namespace hlock

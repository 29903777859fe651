// Tests for the two TryLock variants (Section 3.2).  The starvation property
// the paper discovered -- a true TryLock against a saturated queue lock
// essentially never sees the lock free, because releases hand the lock
// directly to a queued waiter -- depends on the schedule, so it is checked
// under fixed-seed model schedules in tests/hcheck/mcs_try_hcheck_test.cc.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hlock/mcs_try_lock.h"

namespace hlock {
namespace {

TEST(McsTryV1, BasicLockUnlock) {
  McsTryV1Lock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 4000);
}

TEST(McsTryV1, InterruptAcquireFailsOnlyWhenSelfHolds) {
  // The flag detects "I interrupted my own lock code": LockFromInterrupt on
  // the same thread while the lock is held by that thread must fail...
  McsTryV1Lock lock;
  lock.lock();
  EXPECT_FALSE(lock.LockFromInterrupt());
  lock.unlock();
  // ...and succeed when the thread holds nothing.
  EXPECT_TRUE(lock.LockFromInterrupt());
  lock.unlock();
}

TEST(McsTryV2, BasicLockUnlockStress) {
  McsTryV2Lock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1500; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, 6000);
}

TEST(McsTryV2, TryLockSucceedsWhenFree) {
  McsTryV2Lock lock;
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(McsTryV2, TryLockFailsWhenHeldAndNodeIsReclaimed) {
  McsTryV2Lock lock;
  lock.lock();
  std::atomic<bool> failed{false};
  std::thread t([&] { failed = !lock.try_lock(); });
  t.join();
  EXPECT_TRUE(failed.load());
  // The abandoned node is reclaimed by our release.
  lock.unlock();
  EXPECT_EQ(lock.abandoned_nodes_reclaimed(), 1u);
  // The lock still works.
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(McsTryV2, ReleaseSkipsChainsOfAbandonedNodes) {
  McsTryV2Lock lock;
  lock.lock();
  // Several failed try_locks pile abandoned nodes into the queue.
  for (int i = 0; i < 5; ++i) {
    std::thread t([&] { EXPECT_FALSE(lock.try_lock()); });
    t.join();
  }
  // A real waiter queues behind them.
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock();
    acquired = true;
    lock.unlock();
  });
  // Give the waiter time to enqueue behind the garbage.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.unlock();  // must reclaim all 5 abandoned nodes and grant the waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(lock.abandoned_nodes_reclaimed(), 5u);
}

TEST(McsTryV2, MixedLockAndTryLockStress) {
  McsTryV2Lock lock;
  std::int64_t counter = 0;
  std::atomic<std::uint64_t> try_successes{0};
  std::atomic<std::uint64_t> try_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        if (t % 2 == 0) {
          lock.lock();
          counter = counter + 1;
          lock.unlock();
        } else {
          if (lock.try_lock()) {
            counter = counter + 1;
            lock.unlock();
            try_successes.fetch_add(1);
          } else {
            try_failures.fetch_add(1);
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  // Every successful critical section is accounted for.
  EXPECT_EQ(counter, 2000 + static_cast<std::int64_t>(try_successes.load()));
}

}  // namespace
}  // namespace hlock

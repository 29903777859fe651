// Model-checks the TryLock variants (Section 3.2).
//
// V1: the in_use flag must make an interrupt-context acquire refuse (rather
// than deadlock) exactly when it interrupted this thread's own lock code.
//
// V2: abandoned-node reclamation must conserve nodes — at quiescence every
// node ever allocated sits in the free list exactly once.  A release that
// reclaims the same node twice is caught eagerly by the pool's double-free
// check; a node leaked in the queue shows up as pooled < total.  Under a
// queue kept full by blocking waiters, V2's TryLock must starve.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"
#include "src/hlock/mcs_try_lock.h"

namespace {

using TryV1 = hlock::BasicMcsTryV1Lock<hcheck::Platform>;
using TryV2 = hlock::BasicMcsTryV2Lock<hcheck::Platform>;

TEST(McsTryHcheck, V1MutualExclusion) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<TryV1>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [lock, mx] {
      lock->lock();
      mx->Enter();
      mx->Exit();
      lock->unlock();
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// The in_use protocol, single-owner-context invariant: with the lock held by
// this thread, a nested (interrupt) acquire must refuse; once released, it
// must succeed.
TEST(McsTryHcheck, V1InterruptRefusesWhileNodeInUse) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<TryV1>();
    lock->lock();
    // "Interrupt" arrives while we hold the lock: our node is in use, so the
    // handler must refuse instead of enqueueing behind ourselves (deadlock).
    HCHECK_ASSERT(!lock->LockFromInterrupt());
    lock->unlock();
    // With the node quiescent the handler path acquires normally.
    HCHECK_ASSERT(lock->LockFromInterrupt());
    lock->unlock();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_TRUE(res.exhausted);
}

// Cross-thread contention on the lock while one thread also exercises its own
// interrupt path.
TEST(McsTryHcheck, V1InterruptUnderContention) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<TryV1>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    hcheck::Thread t = hcheck::Spawn([lock, mx] {
      lock->lock();
      mx->Enter();
      mx->Exit();
      lock->unlock();
    });
    if (lock->LockFromInterrupt()) {  // own node free: acquires (and waits)
      mx->Enter();
      mx->Exit();
      lock->unlock();
    }
    t.Join();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// V2 conservation: holder + one try_lock contender.  In schedules where the
// contender abandons, the release must reclaim the abandoned node; in
// schedules where the grant wins the race, the contender owns the lock.
// Either way, at quiescence total_nodes() == pooled_nodes().
TEST(McsTryHcheck, V2AbandonedNodeConservation) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<TryV2>();
    lock->lock();
    hcheck::Thread t = hcheck::Spawn([lock] {
      if (lock->try_lock()) {
        lock->unlock();
      }
    });
    lock->unlock();
    t.Join();
    HCHECK_ASSERT(lock->total_nodes() == lock->pooled_nodes());
    // Quiescence: the lock is free again.
    HCHECK_ASSERT(lock->try_lock());
    lock->unlock();
    HCHECK_ASSERT(lock->total_nodes() == lock->pooled_nodes());
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Three threads: a waiter queued behind an abandoner forces the release to
// walk over the abandoned node and grant the thread after it.
TEST(McsTryHcheck, V2ReclaimWalkPastAbandonedNode) {
  auto total_reclaims = std::make_shared<std::uint64_t>(0);
  hcheck::Options opts;
  opts.max_schedules = 25000;
  hcheck::Result res = hcheck::Check(opts, [total_reclaims] {
    auto lock = std::make_shared<TryV2>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    lock->lock();
    hcheck::Thread trier = hcheck::Spawn([lock, mx] {
      if (lock->try_lock()) {
        mx->Enter();
        mx->Exit();
        lock->unlock();
      }
    });
    hcheck::Thread waiter = hcheck::Spawn([lock, mx] {
      lock->lock();
      mx->Enter();
      mx->Exit();
      lock->unlock();
    });
    lock->unlock();
    trier.Join();
    waiter.Join();
    HCHECK_ASSERT(lock->total_nodes() == lock->pooled_nodes());
    *total_reclaims += lock->abandoned_nodes_reclaimed();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_GT(*total_reclaims, 0u)
      << "no explored schedule exercised abandoned-node reclamation";
}

// The paper's incompatibility result: while blocking waiters keep the queue
// non-empty, every release hands the lock to a queued waiter, so a true
// TryLock essentially never finds it free.  Three hogs loop lock/unlock while
// the main thread makes its attempts.  Fixed-seed random schedules make the
// counts a function of the seed rather than of the host scheduler.
TEST(McsTryHcheck, V2TryLockStarvesAgainstSaturatedQueue) {
  auto successes = std::make_shared<std::uint64_t>(0);
  auto failures = std::make_shared<std::uint64_t>(0);
  hcheck::Options opts;
  opts.random_schedules = 200;
  opts.seed = 1;
  // Random mode spends preemptions from the same bound as DFS; the hogs need
  // many to interleave for the whole run.
  opts.preemption_bound = 1 << 20;
  hcheck::Result res = hcheck::Check(opts, [successes, failures] {
    auto lock = std::make_shared<TryV2>();
    auto stop = std::make_shared<hcheck::Atomic<bool>>(false);
    auto ready = std::make_shared<hcheck::Atomic<int>>(0);
    std::vector<hcheck::Thread> hogs;
    for (int t = 0; t < 3; ++t) {
      hogs.push_back(hcheck::Spawn([lock, stop, ready] {
        ready->fetch_add(1, std::memory_order_relaxed);
        while (!stop->load(std::memory_order_relaxed)) {
          lock->lock();
          lock->unlock();
        }
      }));
    }
    while (ready->load(std::memory_order_relaxed) != 3) {
      hcheck::Yield();
    }
    for (int i = 0; i < 20; ++i) {
      if (lock->try_lock()) {
        ++*successes;
        lock->unlock();
      } else {
        ++*failures;
      }
    }
    stop->store(true, std::memory_order_relaxed);
    for (hcheck::Thread& h : hogs) {
      h.Join();
    }
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_GT(*failures, *successes);
}

}  // namespace

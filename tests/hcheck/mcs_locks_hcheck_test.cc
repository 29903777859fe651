// Model-checks the MCS lock family (classic + HURRICANE H1/H2) on the hcheck
// weak-memory model: mutual exclusion, FIFO handover, quiescence, and — for
// the swap-only H2 release — the usurper repair protocol.
//
// The invariant helpers (MutualExclusion, FifoOrder) keep plain state; that
// is sound because hcheck's scheduler is cooperative — exactly one virtual
// thread runs between schedule points.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"
#include "src/hlock/mcs_locks.h"

namespace {

using McsLock = hlock::BasicMcsLock<hcheck::Platform>;
using McsH1Lock = hlock::BasicMcsH1Lock<hcheck::Platform>;
using McsH2Lock = hlock::BasicMcsH2Lock<hcheck::Platform>;

TEST(McsLocksHcheck, ClassicMutualExclusion) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<McsLock>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [lock, mx] {
      McsLock::QNode node;
      lock->lock(node);
      mx->Enter();
      mx->Exit();
      lock->unlock(node);
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// FIFO handover.  Enqueue order is forced by construction: the body holds the
// lock, waits until T1 has taken its queue position (the Enqueue/WaitForGrant
// split makes that moment observable), and only then releases T2 into the
// queue — so grants must come back in T1, T2 order in every schedule.
TEST(McsLocksHcheck, ClassicFifoHandover) {
  hcheck::Options opts;
  opts.max_schedules = 20000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<McsLock>();
    auto fifo = std::make_shared<hcheck::FifoOrder>();
    auto t1_queued = std::make_shared<hcheck::Atomic<int>>(0);
    auto node0 = std::make_shared<McsLock::QNode>();
    HCHECK_ASSERT(lock->Enqueue(*node0));  // uncontended: acquired immediately

    hcheck::Thread t1 = hcheck::Spawn([lock, fifo, t1_queued] {
      McsLock::QNode node;
      const bool immediate = lock->Enqueue(node);
      HCHECK_ASSERT(!immediate);  // the body holds the lock
      t1_queued->store(1, std::memory_order_release);
      lock->WaitForGrant(node);
      fifo->Granted(1);
      lock->unlock(node);
    });
    while (t1_queued->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    fifo->Enqueued(1);
    fifo->Enqueued(2);
    hcheck::Thread t2 = hcheck::Spawn([lock, fifo] {
      McsLock::QNode node;
      lock->lock(node);
      fifo->Granted(2);
      lock->unlock(node);
    });
    lock->unlock(*node0);
    t1.Join();
    t2.Join();
    HCHECK_ASSERT(fifo->quiesced());
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

template <class Lock>
void TwoThreadMutex() {
  auto lock = std::make_shared<Lock>();
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
  // Quiescence: uncontended try_lock must succeed again.
  HCHECK_ASSERT(lock->try_lock());
  lock->unlock();
}

TEST(McsLocksHcheck, H1MutualExclusion) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, TwoThreadMutex<McsH1Lock>);
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(McsLocksHcheck, H2MutualExclusionAndRepair) {
  // Accumulate repairs() across schedules: the swap-only release must take
  // its usurper-repair path in at least one explored interleaving.
  auto total_repairs = std::make_shared<std::uint64_t>(0);
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [total_repairs] {
    auto lock = std::make_shared<McsH2Lock>();
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
    HCHECK_ASSERT(lock->try_lock());
    lock->unlock();
    *total_repairs += lock->core().repairs();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_GT(*total_repairs, 0u)
      << "no explored schedule exercised the swap-only repair path";
}

TEST(McsLocksHcheck, H1ThreeThreads) {
  hcheck::Options opts;
  opts.max_schedules = 20000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto lock = std::make_shared<McsH1Lock>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [lock, mx] {
      lock->lock();
      mx->Enter();
      mx->Exit();
      lock->unlock();
    };
    hcheck::Thread a = hcheck::Spawn(worker);
    hcheck::Thread b = hcheck::Spawn(worker);
    worker();
    a.Join();
    b.Join();
    HCHECK_ASSERT(mx->entries() == 3);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

}  // namespace

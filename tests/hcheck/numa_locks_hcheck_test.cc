// Model-checks the NUMA-aware lock family (CNA, HMCS-T, Fissile) on the
// hcheck weak-memory model, exercising the algorithm cores directly over
// NativeBackend<hcheck::Platform> so the deliberate-bug switches are
// reachable.
//
// For each lock: mutual exclusion and no lost wakeup (every acquire
// completes and the lock is reusable at quiescence); for HMCS-T additionally
// that a timeout never orphans a queue node (pool conservation: at
// quiescence every node ever allocated sits in the free list exactly once).
// For each lock a deliberately broken variant proves hcheck catches the
// corresponding violation:
//
//   CNA      broken splice: a drained main queue *frees* the lock word and
//            only then grants the parked secondary head, so a fresh arrival
//            swaps onto the nil tail and runs concurrently (MX violation).
//   HMCS-T   broken abandon: a timed-out waiter leaves without marking its
//            node, which leaks it from the node pool (conservation failure).
//   Fissile  broken barge: a slow-path caller enters the critical section
//            off the inner queue grant without winning the outer word (MX
//            violation against a fast-path holder).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"
#include "src/hlock/algo/cna.h"
#include "src/hlock/algo/fissile.h"
#include "src/hlock/algo/hmcs.h"
#include "src/hlock/algo/native_backend.h"

namespace {

using B = hlock::algo::NativeBackend<hcheck::Platform>;
using CnaCore = hlock::algo::CnaCore<B>;
using HmcsTCore = hlock::algo::HmcsTCore<B>;
using FissileCore = hlock::algo::FissileCore<B>;

typename B::Ctx Self() { return typename B::Ctx{hcheck::Platform::ThreadId()}; }

// --- CNA --------------------------------------------------------------------

TEST(NumaLocksHcheck, CnaMutualExclusionTwoThreads) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<CnaCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
    // Quiescence / no lost wakeup: the lock must be free again.
    auto ctx = Self();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Three threads across two clusters: exercises the release-time scan, the
// secondary queue detach, and the splice-back paths.
TEST(NumaLocksHcheck, CnaMutualExclusionAcrossClusters) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    // max_streak = 1 forces the starvation-bound flush path as well.
    auto core = std::make_shared<CnaCore>(backend.get(), /*home=*/0, /*max_streak=*/1);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread a = hcheck::Spawn(worker);  // thread id 1: cluster 0
    hcheck::Thread b = hcheck::Spawn(worker);  // thread id 2: cluster 1
    worker();                                  // thread id 0: cluster 0
    a.Join();
    b.Join();
    HCHECK_ASSERT(mx->entries() == 3);
    auto ctx = Self();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// The broken-splice variant must be caught.  The queue is staged
// deterministically (gating on the observable queue shape) so that every
// schedule reaches the bug window, and hcheck only has to resolve the final
// race: the holder drains the main queue with a remote waiter parked in the
// secondary queue, wrongly frees the lock word, and grants the parked waiter
// -- while the main thread's fresh acquire swaps onto the nil tail.
TEST(NumaLocksHcheck, CnaBrokenSpliceViolatesMutualExclusion) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<CnaCore>(backend.get(), /*home=*/0,
                                          CnaCore::kDefaultMaxStreak,
                                          /*broken_splice=*/true);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto go_local = std::make_shared<hcheck::Atomic<int>>(0);
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    auto ctx = Self();
    core->Acquire(ctx).Get();  // main (id 0, cluster 0) holds
    // id 1 (cluster 0): the local waiter; gated until the remote one queues.
    hcheck::Thread local = hcheck::Spawn([worker, go_local] {
      while (go_local->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      worker();
    });
    // id 2 (cluster 1): the remote waiter, queues first.
    hcheck::Thread remote = hcheck::Spawn(worker);
    while (core->DebugLoadNext(ctx, 0).Get() != 3) {
      hcheck::Yield();  // until id 2 is linked behind main
    }
    go_local->store(1, std::memory_order_release);
    while (core->DebugLoadNext(ctx, 2).Get() != 2) {
      hcheck::Yield();  // until id 1 is linked behind id 2
    }
    // Release scans past the remote waiter, parks it in the secondary queue,
    // and grants id 1.  Id 1's release then hits the broken drain path.
    core->Release(ctx).Get();
    // Race under test: this acquire can swap onto the wrongly freed tail
    // while the parked remote waiter is being granted.
    core->Acquire(ctx).Get();
    mx->Enter();
    mx->Exit();
    core->Release(ctx).Get();
    local.Join();
    remote.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the broken CNA splice";
}

// --- HMCS-T -----------------------------------------------------------------

TEST(NumaLocksHcheck, HmcsTMutualExclusionTwoThreads) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<HmcsTCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [backend, core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(worker);  // same cluster: inherit path
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(NumaLocksHcheck, HmcsTCrossClusterHandoff) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<HmcsTCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(worker);  // own cluster: global handoff
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// A timeout must never orphan a queue node: whether the timed waiter got the
// lock, timed out cleanly, or was granted in the abandon window, at
// quiescence every node ever allocated is back in the pool and the lock is
// free.
TEST(NumaLocksHcheck, HmcsTTimeoutNeverOrphansNode) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<HmcsTCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    hcheck::Thread t = hcheck::Spawn([backend, core, mx] {
      auto ctx = Self();
      // A zero budget expires at the first contended spin iteration.
      typename B::Deadline deadline = backend->MakeDeadline(ctx, 0);
      if (core->Acquire(ctx, deadline).Get()) {
        mx->Enter();
        mx->Exit();
        core->Release(ctx).Get();
      }
    });
    auto ctx = Self();
    core->Acquire(ctx).Get();
    mx->Enter();
    mx->Exit();
    core->Release(ctx).Get();
    t.Join();
    // Pool conservation at quiescence, across every level.
    for (std::uint32_t c = 0; c < backend->NumClusters() + 1; ++c) {
      auto& level = c == 0 ? core->global_level() : core->local_level(c - 1);
      HCHECK_ASSERT(level.total_nodes() == level.pooled_nodes());
    }
    // And the lock is still usable.
    core->Acquire(ctx).Get();
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// The broken-abandon variant leaks the departed waiter's node: hcheck sees
// the conservation failure (or the lost wakeup downstream of it).
TEST(NumaLocksHcheck, HmcsTBrokenAbandonLeaksNode) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<HmcsTCore>(backend.get(), /*home=*/0,
                                            HmcsTCore::kDefaultThreshold,
                                            /*broken_abandon=*/true);
    hcheck::Thread t = hcheck::Spawn([backend, core] {
      auto ctx = Self();
      typename B::Deadline deadline = backend->MakeDeadline(ctx, 0);
      if (core->Acquire(ctx, deadline).Get()) {
        core->Release(ctx).Get();
      }
    });
    auto ctx = Self();
    core->Acquire(ctx).Get();
    core->Release(ctx).Get();
    t.Join();
    for (std::uint32_t c = 0; c < backend->NumClusters() + 1; ++c) {
      auto& level = c == 0 ? core->global_level() : core->local_level(c - 1);
      HCHECK_ASSERT(level.total_nodes() == level.pooled_nodes());
    }
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the broken HMCS-T abandon";
}

// --- Fissile ----------------------------------------------------------------

TEST(NumaLocksHcheck, FissileMutualExclusionTwoThreads) {
  hcheck::Options opts;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>();
    auto core = std::make_shared<FissileCore>(backend.get(), /*home=*/0,
                                              /*fast_attempts=*/1);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
    auto ctx = Self();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

TEST(NumaLocksHcheck, FissileThreeThreadsSlowPath) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>();
    // One fast attempt: contention reliably fissions into the queue.
    auto core = std::make_shared<FissileCore>(backend.get(), /*home=*/0,
                                              /*fast_attempts=*/1);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
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

TEST(NumaLocksHcheck, FissileBrokenBargeViolatesMutualExclusion) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>();
    auto core = std::make_shared<FissileCore>(backend.get(), /*home=*/0,
                                              /*fast_attempts=*/1,
                                              /*broken_barge=*/true);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto worker = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the broken Fissile barge";
}

}  // namespace

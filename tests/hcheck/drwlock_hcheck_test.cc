// Model-checks the distributed reader-writer lock (algo::DrwLockCore) on the
// hcheck weak-memory model: readers on different clusters genuinely coexist,
// a writer excludes every reader (the Dekker race between reader increments
// and the flag+sweep is where acquire/release alone would lose), writers
// exclude each other, and upgrade/downgrade hand the hold over without a
// window.  Two deliberately broken variants prove the checker can see the
// protocol's failure modes:
//
//   kBrokenSweep      the writer sweep skips cluster 0, so a reader there
//                     runs concurrently with the "exclusive" holder (MX
//                     violation, caught via a readers-inside counter).
//   kBrokenUnderflow  the reader backout path decrements twice, wrapping the
//                     cluster counter (the underflow Check fires).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/hcheck/checker.h"
#include "src/hcheck/platform.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/native_backend.h"

namespace {

using B = hlock::algo::NativeBackend<hcheck::Platform>;
using DrwCore = hlock::algo::DrwLockCore<B>;
using hlock::algo::DrwBroken;
using hlock::algo::DrwPreference;

typename B::Ctx Self() { return typename B::Ctx{hcheck::Platform::ThreadId()}; }

// Two readers on different clusters hold the lock *at the same time*: the
// spawned reader enters and parks inside its hold until the main reader --
// also inside its hold -- has seen it.  If readers excluded each other this
// would deadlock; instead every schedule reaches the doubly-held state, after
// which the lock must still grant a writer.
TEST(DrwLockHcheck, ReadersOnDifferentClustersCoexist) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto peer_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto release_peer = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([core, peer_in, release_peer] {
      auto ctx = Self();  // thread id 1: cluster 1
      core->AcquireShared(ctx).Get();
      peer_in->store(1, std::memory_order_release);
      while (release_peer->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      core->ReleaseShared(ctx).Get();
    });
    auto ctx = Self();  // thread id 0: cluster 0
    core->AcquireShared(ctx).Get();
    // Both holds overlap here: we wait for the peer while still inside ours.
    while (peer_in->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    release_peer->store(1, std::memory_order_release);
    core->ReleaseShared(ctx).Get();
    t.Join();
    // Quiescence: all counters drained, a writer gets in cleanly.
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// A writer never overlaps a reader (or another writer).  Readers count
// themselves inside their hold; the writer asserts the population is zero for
// the whole exclusive section.  The no-spin entries must also tell the truth:
// TryAcquire fails while a reader is in (and backs the flag out),
// TryAcquireShared fails while the writer is in.
TEST(DrwLockHcheck, WriterExcludesReaders) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto writer_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto reader = [core, readers_in, writer_in] {
      auto ctx = Self();
      core->AcquireShared(ctx).Get();
      readers_in->fetch_add(1, std::memory_order_relaxed);
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      // While we hold shared, an exclusive try must fail and back out.
      HCHECK_ASSERT(!core->TryAcquire(ctx).Get());
      hcheck::Yield();
      HCHECK_ASSERT(writer_in->load(std::memory_order_relaxed) == 0);
      readers_in->fetch_sub(1, std::memory_order_relaxed);
      core->ReleaseShared(ctx).Get();
    };
    hcheck::Thread a = hcheck::Spawn(reader);  // id 1: cluster 1
    hcheck::Thread b = hcheck::Spawn(reader);  // id 2: cluster 2
    auto ctx = Self();  // id 0: cluster 0
    core->Acquire(ctx).Get();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(1, std::memory_order_relaxed);
    // While the writer holds, the no-spin reader entry must fail.
    HCHECK_ASSERT(!core->TryAcquireShared(ctx).Get());
    hcheck::Yield();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    writer_in->store(0, std::memory_order_relaxed);
    core->Release(ctx).Get();
    a.Join();
    b.Join();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Same exclusion property under reader preference: the writer's flagless
// pre-drain must still end with a definitive flag+sweep, or an admitted
// reader overlaps the write hold.
TEST(DrwLockHcheck, WriterExcludesReadersUnderReaderPreference) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0,
                                          DrwPreference::kReaders);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([core, readers_in] {
      auto ctx = Self();
      core->AcquireShared(ctx).Get();
      readers_in->fetch_add(1, std::memory_order_relaxed);
      hcheck::Yield();
      readers_in->fetch_sub(1, std::memory_order_relaxed);
      core->ReleaseShared(ctx).Get();
    });
    auto ctx = Self();
    core->Acquire(ctx).Get();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    hcheck::Yield();
    HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
    core->Release(ctx).Get();
    t.Join();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Writer/writer exclusion through the standalone write path (wmutex), plus
// lock reusability at quiescence.
TEST(DrwLockHcheck, WritersExcludeEachOther) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/2);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto writer = [core, mx] {
      auto ctx = Self();
      core->Acquire(ctx).Get();
      mx->Enter();
      mx->Exit();
      core->Release(ctx).Get();
    };
    hcheck::Thread t = hcheck::Spawn(writer);
    writer();
    t.Join();
    HCHECK_ASSERT(mx->entries() == 2);
    auto ctx = Self();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// Upgrade consumes the shared hold into an exclusive one with no window: a
// concurrent reader must never observe the half-done write (1), only the
// initial 0 or the completed 2.  Downgrade re-enters the reader side without
// dropping the hold, so the downgraded reader still sees its own writes.
TEST(DrwLockHcheck, UpgradeDowngradeHandsOverWithoutWindow) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0);
    auto value = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([core, value] {
      auto ctx = Self();
      core->AcquireShared(ctx).Get();
      const int seen = value->load(std::memory_order_relaxed);
      HCHECK_ASSERT(seen == 0 || seen == 2);
      core->ReleaseShared(ctx).Get();
    });
    auto ctx = Self();
    core->AcquireShared(ctx).Get();
    if (core->TryUpgrade(ctx).Get()) {
      // Exclusive now: the two-step write below is invisible half-done.
      value->store(1, std::memory_order_relaxed);
      hcheck::Yield();
      value->store(2, std::memory_order_relaxed);
      core->Downgrade(ctx).Get();
      HCHECK_ASSERT(value->load(std::memory_order_relaxed) == 2);
      core->ReleaseShared(ctx).Get();
    } else {
      // Lost the writer-mutex race (can't happen here -- no other writer --
      // but the contract says the shared hold survives a failed try).
      core->ReleaseShared(ctx).Get();
    }
    t.Join();
    HCHECK_ASSERT(core->TryAcquire(ctx).Get());
    core->Release(ctx).Get();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// The broken sweep never looks at cluster 0, so the writer is granted while
// the cluster-0 reader is still inside: the readers-inside assertion fires on
// the very first schedule that stages the overlap (which the gates below make
// every schedule).
TEST(DrwLockHcheck, BrokenSweepViolatesExclusion) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0,
                                          DrwPreference::kWriters,
                                          DrwBroken::kBrokenSweep);
    auto readers_in = std::make_shared<hcheck::Atomic<int>>(0);
    auto writer_done = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread writer = hcheck::Spawn([core, readers_in, writer_done] {
      auto ctx = Self();  // id 1: cluster 1 (swept; cluster 0 is skipped)
      while (readers_in->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      core->Acquire(ctx).Get();
      HCHECK_ASSERT(readers_in->load(std::memory_order_relaxed) == 0);
      core->Release(ctx).Get();
      writer_done->store(1, std::memory_order_release);
    });
    auto ctx = Self();  // id 0: cluster 0, the skipped counter
    core->AcquireShared(ctx).Get();
    readers_in->store(1, std::memory_order_release);
    while (writer_done->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    readers_in->store(0, std::memory_order_relaxed);
    core->ReleaseShared(ctx).Get();
    writer.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the broken drwlock sweep";
}

// The broken backout decrements the cluster counter twice; the second
// decrement finds it already at zero and the underflow Check fires.  The
// gate guarantees the reader's increment happens while the writer flag is up,
// so every schedule walks straight into the backout path.
TEST(DrwLockHcheck, BrokenUnderflowCaughtInBackout) {
  hcheck::Options opts;
  opts.max_schedules = 60000;
  hcheck::Result res = hcheck::Check(opts, [] {
    auto backend = std::make_shared<B>(/*procs_per_cluster=*/1);
    auto core = std::make_shared<DrwCore>(backend.get(), /*home=*/0,
                                          DrwPreference::kWriters,
                                          DrwBroken::kBrokenUnderflow);
    auto writer_holds = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread reader = hcheck::Spawn([core, writer_holds] {
      auto ctx = Self();
      while (writer_holds->load(std::memory_order_acquire) == 0) {
        hcheck::Yield();
      }
      // Flag is up: the increment backs out, and the broken double decrement
      // underflows the counter we no longer hold.
      core->AcquireShared(ctx).Get();
      core->ReleaseShared(ctx).Get();
    });
    auto ctx = Self();
    core->Acquire(ctx).Get();
    writer_holds->store(1, std::memory_order_release);
    hcheck::Yield();
    core->Release(ctx).Get();
    reader.Join();
  });
  EXPECT_TRUE(res.failed) << "hcheck failed to catch the drwlock reader-count underflow";
}

}  // namespace

// Tests of the hcheck checker itself: the weak-memory model must admit the
// reorderings the C++ model admits (so buggy code fails) and respect the
// synchronization it guarantees (so correct code passes).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hcheck/atomic.h"
#include "src/hcheck/checker.h"
#include "src/hcheck/model.h"
#include "src/hcheck/platform.h"
#include "src/hcheck/sync.h"

namespace {

using hcheck::Check;
using hcheck::Options;
using hcheck::Result;

// --- message passing -----------------------------------------------------------

// Release/acquire message passing is the guarantee half: the flag's acquire
// load synchronizes with the release store, so the payload must be visible.
TEST(HcheckModel, ReleaseAcquireMessagePassingPasses) {
  Options opts;
  Result res = Check(opts, [] {
    auto data = std::make_shared<hcheck::Atomic<int>>(0);
    auto flag = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([data, flag] {
      data->store(42, std::memory_order_relaxed);
      flag->store(1, std::memory_order_release);
    });
    while (flag->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    HCHECK_ASSERT(data->load(std::memory_order_relaxed) == 42);
    t.Join();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_TRUE(res.exhausted);
}

// The permission half: with a relaxed flag store there is no synchronizes-with
// edge, so the reader may see flag == 1 but data == 0.  The checker must find
// that schedule.
TEST(HcheckModel, RelaxedMessagePassingFails) {
  Options opts;
  Result res = Check(opts, [] {
    auto data = std::make_shared<hcheck::Atomic<int>>(0);
    auto flag = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([data, flag] {
      data->store(42, std::memory_order_relaxed);
      flag->store(1, std::memory_order_relaxed);  // bug: no release
    });
    while (flag->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    HCHECK_ASSERT(data->load(std::memory_order_relaxed) == 42);
    t.Join();
  });
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.kind, "assert");
}

// Release fence upstream of a relaxed store restores the guarantee.
TEST(HcheckModel, ReleaseFencePublishesPasses) {
  Options opts;
  Result res = Check(opts, [] {
    auto data = std::make_shared<hcheck::Atomic<int>>(0);
    auto flag = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([data, flag] {
      data->store(42, std::memory_order_relaxed);
      hcheck::ThreadFence(std::memory_order_release);
      flag->store(1, std::memory_order_relaxed);
    });
    while (flag->load(std::memory_order_relaxed) == 0) {
      hcheck::Yield();
    }
    hcheck::ThreadFence(std::memory_order_acquire);
    HCHECK_ASSERT(data->load(std::memory_order_relaxed) == 42);
    t.Join();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// --- Dekker store/load ----------------------------------------------------------

// The store-buffer litmus test (the shape behind the SpinThenBlockLock bug).
// With acquire/release only, both threads may read 0 — C++ allows it, real
// hardware (TSO store buffers) does it, and the checker must find it.
TEST(HcheckModel, DekkerWithoutSeqCstFails) {
  Options opts;
  Result res = Check(opts, [] {
    auto x = std::make_shared<hcheck::Atomic<int>>(0);
    auto y = std::make_shared<hcheck::Atomic<int>>(0);
    auto r0 = std::make_shared<hcheck::Atomic<int>>(-1);
    auto r1 = std::make_shared<hcheck::Atomic<int>>(-1);
    hcheck::Thread t = hcheck::Spawn([y, x, r1] {
      y->store(1, std::memory_order_release);
      r1->store(x->load(std::memory_order_acquire), std::memory_order_relaxed);
    });
    x->store(1, std::memory_order_release);
    r0->store(y->load(std::memory_order_acquire), std::memory_order_relaxed);
    t.Join();
    HCHECK_ASSERT(r0->load(std::memory_order_relaxed) == 1 ||
                  r1->load(std::memory_order_relaxed) == 1);
  });
  EXPECT_TRUE(res.failed) << "checker missed the store-buffer outcome";
  EXPECT_EQ(res.kind, "assert");
}

// With seq_cst fences between each store and load, both-read-0 is forbidden.
TEST(HcheckModel, DekkerWithSeqCstFencesPasses) {
  Options opts;
  Result res = Check(opts, [] {
    auto x = std::make_shared<hcheck::Atomic<int>>(0);
    auto y = std::make_shared<hcheck::Atomic<int>>(0);
    auto r0 = std::make_shared<hcheck::Atomic<int>>(-1);
    auto r1 = std::make_shared<hcheck::Atomic<int>>(-1);
    hcheck::Thread t = hcheck::Spawn([y, x, r1] {
      y->store(1, std::memory_order_relaxed);
      hcheck::ThreadFence(std::memory_order_seq_cst);
      r1->store(x->load(std::memory_order_relaxed), std::memory_order_relaxed);
    });
    x->store(1, std::memory_order_relaxed);
    hcheck::ThreadFence(std::memory_order_seq_cst);
    r0->store(y->load(std::memory_order_relaxed), std::memory_order_relaxed);
    t.Join();
    HCHECK_ASSERT(r0->load(std::memory_order_relaxed) == 1 ||
                  r1->load(std::memory_order_relaxed) == 1);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// --- coherence ------------------------------------------------------------------

// Even relaxed loads may not go backwards on one location (read-read
// coherence), and RMWs always see the newest value.
TEST(HcheckModel, CoherenceAndRmwFreshness) {
  Options opts;
  Result res = Check(opts, [] {
    auto x = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([x] {
      x->store(1, std::memory_order_relaxed);
      x->store(2, std::memory_order_relaxed);
    });
    const int a = x->load(std::memory_order_relaxed);
    const int b = x->load(std::memory_order_relaxed);
    HCHECK_ASSERT(b >= a);
    t.Join();
    // After join (happens-before), only the final value is visible.
    HCHECK_ASSERT(x->load(std::memory_order_relaxed) == 2);
    HCHECK_ASSERT(x->fetch_add(0, std::memory_order_relaxed) == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// --- mutexes and condition variables -------------------------------------------

TEST(HcheckModel, MutexProvidesExclusionAndVisibility) {
  Options opts;
  Result res = Check(opts, [] {
    auto mu = std::make_shared<hcheck::Mutex>();
    auto mx = std::make_shared<hcheck::MutualExclusion>();
    auto counter = std::make_shared<hcheck::Atomic<int>>(0);
    auto worker = [mu, mx, counter] {
      mu->lock();
      mx->Enter();
      counter->store(counter->load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      mx->Exit();
      mu->unlock();
    };
    hcheck::Thread t = hcheck::Spawn(worker);
    worker();
    t.Join();
    HCHECK_ASSERT(counter->load(std::memory_order_relaxed) == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// A missing notify must be reported as a lost signal, not hang the test.
TEST(HcheckModel, MissingNotifyReportedAsLostSignal) {
  Options opts;
  Result res = Check(opts, [] {
    auto mu = std::make_shared<hcheck::Mutex>();
    auto cv = std::make_shared<hcheck::CondVar>();
    hcheck::Thread t = hcheck::Spawn([mu, cv] {
      std::unique_lock<hcheck::Mutex> lk(*mu);
      cv->wait(lk);  // bug: no one will ever notify
    });
    t.Join();
  });
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.kind, "lost-signal") << res.message;
}

TEST(HcheckModel, NotifyWakesWaiter) {
  Options opts;
  Result res = Check(opts, [] {
    auto mu = std::make_shared<hcheck::Mutex>();
    auto cv = std::make_shared<hcheck::CondVar>();
    auto ready = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([mu, cv, ready] {
      std::unique_lock<hcheck::Mutex> lk(*mu);
      while (ready->load(std::memory_order_relaxed) == 0) {
        cv->wait(lk);
      }
    });
    {
      std::unique_lock<hcheck::Mutex> lk(*mu);
      ready->store(1, std::memory_order_relaxed);
      cv->notify_one();
    }
    t.Join();
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
}

// --- replay ---------------------------------------------------------------------

// Random mode must report a seed that replays the failure by itself.
TEST(HcheckModel, RandomModeFailureSeedReplays) {
  Options opts;
  opts.random_schedules = 2000;
  opts.seed = 7;
  auto body = [] {
    auto data = std::make_shared<hcheck::Atomic<int>>(0);
    auto flag = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([data, flag] {
      data->store(42, std::memory_order_relaxed);
      flag->store(1, std::memory_order_relaxed);  // bug
    });
    while (flag->load(std::memory_order_acquire) == 0) {
      hcheck::Yield();
    }
    HCHECK_ASSERT(data->load(std::memory_order_relaxed) == 42);
    t.Join();
  };
  Result res = Check(opts, body);
  ASSERT_TRUE(res.failed) << "random mode missed an easy bug in 2000 schedules";
  EXPECT_NE(res.message.find("seed="), std::string::npos);

  Options replay;
  replay.random_schedules = 1;
  replay.seed = res.seed;
  Result again = Check(replay, body);
  EXPECT_TRUE(again.failed) << "reported seed did not replay the failure";
  EXPECT_EQ(again.schedules_run, 1u);
}

// A deterministic pass on a bounded body must exhaust its schedule space.
TEST(HcheckModel, SmallSpaceIsExhausted) {
  Options opts;
  Result res = Check(opts, [] {
    auto x = std::make_shared<hcheck::Atomic<int>>(0);
    hcheck::Thread t = hcheck::Spawn([x] { x->fetch_add(1, std::memory_order_relaxed); });
    x->fetch_add(1, std::memory_order_relaxed);
    t.Join();
    HCHECK_ASSERT(x->load(std::memory_order_relaxed) == 2);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.schedules_run, 1u);
}

// --- runtime -------------------------------------------------------------------

// Every spawn in quick succession: a new worker reads its own thread record
// while the spawner is already appending the next one, so the thread table
// must never move under it (a use-after-free, flaky on a loaded host).  Each
// execution spawns the most threads the model admits.
TEST(HcheckModel, MaxThreadSpawnsPerExecution) {
  Options opts;
  opts.random_schedules = 5000;
  Result res = Check(opts, [] {
    auto x = std::make_shared<hcheck::Atomic<int>>(0);
    std::vector<hcheck::Thread> threads;
    for (std::uint32_t i = 1; i < hcheck::kMaxModelThreads; ++i) {
      threads.push_back(hcheck::Spawn([x] { x->fetch_add(1, std::memory_order_relaxed); }));
    }
    for (hcheck::Thread& t : threads) {
      t.Join();
    }
    HCHECK_ASSERT(x->load(std::memory_order_relaxed) ==
                  static_cast<int>(hcheck::kMaxModelThreads) - 1);
  });
  EXPECT_FALSE(res.failed) << res.message << "\n" << res.trace;
  EXPECT_EQ(res.schedules_run, 5000u);
}

}  // namespace

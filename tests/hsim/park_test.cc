// Poll-grid park: the resume tick is the first tick of the waiter's own poll
// grid (origin + k * period, k >= 1) at or after the wake or the deadline,
// WakeFirst picks the waiter the polling race would have picked, a stale
// deadline never resumes its coroutine, a deadline-free park queues nothing,
// and the wait is charged as idle cycles.

#include "src/hsim/park.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/hsim/engine.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {
namespace {

constexpr Tick kPeriod = 48;
constexpr Tick kNotResumed = ~Tick{0};

class ParkTest : public ::testing::Test {
 protected:
  ParkTest() : machine_(&engine_, MachineConfig{}) {}

  Processor& proc(ProcId id) { return machine_.processor(id); }

  // Parks on `queue` at tick `at`; records the resume tick.
  Task<void> ParkAt(Tick at, ProcId id, Tick deadline, Tick* resumed) {
    co_await engine_.WaitUntil(at);
    co_await proc(id).Park(queue_, kPeriod, deadline);
    *resumed = engine_.now();
  }

  Task<void> WakeAllAt(Tick at) {
    co_await engine_.WaitUntil(at);
    queue_.WakeAll(engine_);
  }

  Task<void> WakeFirstAt(Tick at) {
    co_await engine_.WaitUntil(at);
    queue_.WakeFirst(engine_);
  }

  // Resume tick of one waiter parked at `origin` and woken at `wake`.
  Tick ResumeFor(Tick origin, Tick wake) {
    Tick resumed = kNotResumed;
    engine_.Spawn(ParkAt(origin, 0, kNoDeadline, &resumed));
    engine_.Spawn(WakeAllAt(wake));
    engine_.RunUntilIdle();
    return resumed;
  }

  Engine engine_;
  Machine machine_;
  ParkQueue queue_;
};

TEST_F(ParkTest, WakeBeforeTheFirstPollResumesAtTheFirstPoll) {
  EXPECT_EQ(ResumeFor(100, 120), 100 + kPeriod);
}

TEST_F(ParkTest, WakeAtTheParkInstantResumesAtTheFirstPoll) {
  EXPECT_EQ(ResumeFor(100, 100), 100 + kPeriod);
}

TEST_F(ParkTest, WakeBetweenPollsResumesAtTheNextPoll) {
  EXPECT_EQ(ResumeFor(100, 100 + 2 * kPeriod + 1), 100 + 3 * kPeriod);
}

TEST_F(ParkTest, WakeOnAGridTickResumesAtThatTick) {
  EXPECT_EQ(ResumeFor(100, 100 + 2 * kPeriod), 100 + 2 * kPeriod);
}

TEST_F(ParkTest, DeadlineAloneResumesAtTheFirstGridTickAtOrAfterIt) {
  Tick between = kNotResumed;
  Tick on_tick = kNotResumed;
  engine_.Spawn(ParkAt(10, 0, 10 + kPeriod + 5, &between));
  engine_.Spawn(ParkAt(20, 1, 20 + 3 * kPeriod, &on_tick));
  engine_.RunUntilIdle();
  EXPECT_EQ(between, 10 + 2 * kPeriod);
  EXPECT_EQ(on_tick, 20 + 3 * kPeriod);
  EXPECT_TRUE(queue_.empty());
}

TEST_F(ParkTest, WakeFirstResumesOnlyTheEarliestGridTick) {
  // Grids: a 0+48k, b 30+48k, c 40+48k.  At 60 their next ticks are 96, 78
  // and 88: b wins, as its poll would have come first.
  Tick a = kNotResumed;
  Tick b = kNotResumed;
  Tick c = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, kNoDeadline, &a));
  engine_.Spawn(ParkAt(30, 1, kNoDeadline, &b));
  engine_.Spawn(ParkAt(40, 2, kNoDeadline, &c));
  engine_.Spawn(WakeFirstAt(60));
  EXPECT_TRUE(engine_.RunUntil(1000));
  EXPECT_EQ(b, 78u);
  EXPECT_EQ(a, kNotResumed);
  EXPECT_EQ(c, kNotResumed);
  EXPECT_FALSE(queue_.empty());

  // At 1001 a's next tick (1008) beats c's (1048).
  engine_.Spawn(WakeFirstAt(1001));
  EXPECT_TRUE(engine_.RunUntil(2000));
  EXPECT_EQ(a, 1008u);
  EXPECT_EQ(c, kNotResumed);

  engine_.Spawn(WakeFirstAt(2001));
  engine_.RunUntilIdle();
  EXPECT_EQ(c, 2008u);
  EXPECT_TRUE(queue_.empty());
}

TEST_F(ParkTest, WakeFirstBreaksTiesByParkOrder) {
  Tick first = kNotResumed;
  Tick second = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, kNoDeadline, &first));
  engine_.Spawn(ParkAt(kPeriod, 1, kNoDeadline, &second));  // same grid, parked later
  engine_.Spawn(WakeFirstAt(2 * kPeriod + 1));
  EXPECT_TRUE(engine_.RunUntil(1000));
  EXPECT_EQ(first, 3 * kPeriod);
  EXPECT_EQ(second, kNotResumed);
  queue_.WakeAll(engine_);
  engine_.RunUntilIdle();
}

TEST_F(ParkTest, WakeAllResumesEveryWaiterOnItsOwnGrid) {
  Tick a = kNotResumed;
  Tick b = kNotResumed;
  Tick c = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, kNoDeadline, &a));
  engine_.Spawn(ParkAt(30, 1, kNoDeadline, &b));
  engine_.Spawn(ParkAt(40, 2, 5000, &c));
  engine_.Spawn(WakeAllAt(60));
  engine_.RunUntilIdle();
  EXPECT_EQ(a, 96u);
  EXPECT_EQ(b, 78u);
  EXPECT_EQ(c, 88u);
  EXPECT_TRUE(queue_.empty());
}

Task<void> ParkTwice(Processor* p, ParkQueue* q, std::vector<Tick>* resumes) {
  co_await p->Park(*q, kPeriod, 1000);
  resumes->push_back(p->now());
  co_await p->engine().WaitUntil(5000);
  resumes->push_back(p->now());
}

TEST_F(ParkTest, StaleDeadlineNeverResumesTheCoroutine) {
  std::vector<Tick> resumes;
  engine_.Spawn(ParkTwice(&proc(0), &queue_, &resumes));
  engine_.Spawn(WakeAllAt(50));
  // The cancelled deadline event at 1008 comes due while the coroutine waits
  // for 5000: it must neither resume it nor show as a resume.
  EXPECT_EQ(engine_.RunUntilIdle(), 5000u);
  EXPECT_EQ(resumes, (std::vector<Tick>{96, 5000}));
  EXPECT_EQ(engine_.live_tasks(), 0u);
}

TEST_F(ParkTest, CancelledDeadlineDoesNotAdvanceTheClock) {
  Tick resumed = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, 10'000, &resumed));
  engine_.Spawn(WakeAllAt(50));
  EXPECT_EQ(engine_.RunUntilIdle(), 96u);
  EXPECT_EQ(resumed, 96u);
}

TEST_F(ParkTest, CancelledDeadlinePastTheSliceLeavesRunUntilDrained) {
  Tick resumed = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, 10'000, &resumed));
  engine_.Spawn(WakeAllAt(50));
  // Only the cancelled deadline at 10'032 is left past the slice: the run
  // is drained and the clock stays at the last real event.
  EXPECT_TRUE(engine_.RunUntil(1000));
  EXPECT_EQ(engine_.now(), 96u);
  EXPECT_EQ(resumed, 96u);
}

TEST_F(ParkTest, DeadlineFreeParkLeavesTheEngineDrained) {
  Tick resumed = kNotResumed;
  engine_.Spawn(ParkAt(0, 0, kNoDeadline, &resumed));
  const std::uint64_t events = engine_.events_processed();
  EXPECT_TRUE(engine_.RunUntil(1'000'000));
  EXPECT_EQ(engine_.events_processed(), events);
  EXPECT_EQ(engine_.live_tasks(), 1u);
  EXPECT_EQ(resumed, kNotResumed);

  engine_.Spawn(WakeAllAt(2'000'000));
  engine_.RunUntilIdle();
  EXPECT_EQ(resumed, 2'000'016u);  // 2'000'000 is not on the 48-tick grid
  EXPECT_EQ(engine_.live_tasks(), 0u);
}

TEST_F(ParkTest, IdleCyclesEqualTheElapsedWait) {
  Tick woken = kNotResumed;
  Tick timed_out = kNotResumed;
  engine_.Spawn(ParkAt(7, 0, kNoDeadline, &woken));
  engine_.Spawn(ParkAt(9, 1, 400, &timed_out));
  engine_.Spawn(WakeFirstAt(100));  // next ticks 103 and 105: proc 0's waiter
  engine_.RunUntilIdle();
  EXPECT_EQ(woken, 103u);
  EXPECT_EQ(timed_out, 441u);  // first tick of 9 + 48k at or after 400
  EXPECT_EQ(proc(0).stats().idle_cycles, woken - 7);
  EXPECT_EQ(proc(1).stats().idle_cycles, timed_out - 9);
}

}  // namespace
}  // namespace hsim

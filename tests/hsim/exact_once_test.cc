// Tests for the shared exact-once transport pieces (src/hsim/exact_once.h):
// the receiver's dedup window verdicts, the initiator's call slot (stale and
// duplicate replies, sequence numbers across Reset), the retransmit schedule,
// and fault routing of one send.

#include "src/hsim/exact_once.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace hsim {
namespace {

struct TestPacket {
  bool is_reply = false;
  std::uint64_t seq = 0;
  std::uint8_t op = 0;
  int body = 0;
};

TestPacket Reply(std::uint64_t seq, int body) { return TestPacket{true, seq, 0, body}; }

TEST(ExactOnceTest, DedupWindowVerdicts) {
  DedupWindow<TestPacket> w;
  EXPECT_EQ(w.Admit(1), Admission::kFresh);
  // A retransmit of the request being executed is discarded.
  EXPECT_EQ(w.Admit(1), Admission::kDiscard);
  w.Complete(1, Reply(1, 10));
  // The last completed request: resend its cached reply (every time).
  EXPECT_EQ(w.Admit(1), Admission::kResendCached);
  EXPECT_EQ(w.Admit(1), Admission::kResendCached);
  EXPECT_EQ(w.cached_reply().body, 10);

  EXPECT_EQ(w.Admit(2), Admission::kFresh);
  // While 2 runs, 1 is still the last completed one.
  EXPECT_EQ(w.Admit(1), Admission::kResendCached);
  EXPECT_EQ(w.Admit(2), Admission::kDiscard);
  w.Complete(2, Reply(2, 20));
  EXPECT_EQ(w.Admit(2), Admission::kResendCached);
  EXPECT_EQ(w.cached_reply().body, 20);
  // Anything older than the last completed request is discarded.
  EXPECT_EQ(w.Admit(1), Admission::kDiscard);
  EXPECT_EQ(w.Admit(3), Admission::kFresh);
}

TEST(ExactOnceTest, CallSlotRejectsStaleAndDuplicateReplies) {
  CallSlot<TestPacket> slot;
  EXPECT_FALSE(slot.busy());
  EXPECT_FALSE(slot.Offer(Reply(1, 1)));  // no call open

  const std::uint64_t first = slot.Begin();
  EXPECT_EQ(first, 1u);
  EXPECT_TRUE(slot.busy());
  EXPECT_FALSE(slot.Offer(Reply(first + 1, 1)));  // not the open call's
  EXPECT_FALSE(slot.ready());
  EXPECT_TRUE(slot.Offer(Reply(first, 7)));
  EXPECT_TRUE(slot.ready());
  EXPECT_FALSE(slot.Offer(Reply(first, 8)));  // duplicate: the first one wins
  EXPECT_EQ(slot.reply().body, 7);
  slot.Reset();
  EXPECT_FALSE(slot.busy());
  EXPECT_FALSE(slot.Offer(Reply(first, 9)));  // late copy after the call ended

  const std::uint64_t second = slot.Begin();
  EXPECT_EQ(second, first + 1);
  EXPECT_FALSE(slot.ready());
  EXPECT_FALSE(slot.Offer(Reply(first, 9)));  // the previous call's reply is stale
  EXPECT_TRUE(slot.Offer(Reply(second, 2)));
}

TEST(ExactOnceTest, CallSlotSequenceSurvivesReset) {
  CallSlot<TestPacket> slot;
  const std::uint64_t before = slot.Begin();
  slot.Reset();  // e.g. the endpoint's machine crashed mid-call
  EXPECT_FALSE(slot.busy());
  EXPECT_FALSE(slot.Offer(Reply(before, 1)));

  const std::uint64_t after = slot.Begin();
  EXPECT_GT(after, before);
  // The reply to the abandoned call arrives late: it must not match.
  EXPECT_FALSE(slot.Offer(Reply(before, 1)));
  EXPECT_FALSE(slot.ready());
  EXPECT_TRUE(slot.Offer(Reply(after, 2)));
  EXPECT_EQ(slot.reply().body, 2);
}

TEST(ExactOnceTest, RetransmitTimerDoublesWithJitterUpToCap) {
  const Tick base = 1000;
  RetransmitTimer timer(base);
  timer.Arm(50);
  EXPECT_FALSE(timer.Expired(50 + base - 1));
  EXPECT_TRUE(timer.Expired(50 + base));

  Rng rng(42);
  Rng shadow(42);
  bool capped = false;
  for (int step = 0; step < 12; ++step) {
    const Tick t = timer.timeout();
    timer.Backoff(rng);
    shadow.Next();
    // Exactly one draw per step: the two generators stay in lockstep.
    Rng probe_a = rng;
    Rng probe_b = shadow;
    ASSERT_EQ(probe_a.Next(), probe_b.Next()) << "step " << step;
    const Tick next = timer.timeout();
    EXPECT_LE(next, RetransmitTimer::kCapFactor * base);
    if (2 * t + t / 4 <= RetransmitTimer::kCapFactor * base) {
      EXPECT_GE(next, 2 * t) << "step " << step;
      EXPECT_LE(next, 2 * t + t / 4) << "step " << step;
    } else {
      EXPECT_GE(next, std::min(2 * t, RetransmitTimer::kCapFactor * base));
    }
    capped = capped || next == RetransmitTimer::kCapFactor * base;
  }
  EXPECT_TRUE(capped);
  EXPECT_EQ(timer.timeout(), RetransmitTimer::kCapFactor * base);

  timer.Arm(7);
  EXPECT_FALSE(timer.Expired(7 + RetransmitTimer::kCapFactor * base - 1));
  EXPECT_TRUE(timer.Expired(7 + RetransmitTimer::kCapFactor * base));
}

std::vector<Tick> Route(FaultPlan* plan, Tick transit = 100) {
  std::vector<Tick> launched;
  RouteSend(plan, TestPacket{}, /*src=*/0, /*dst=*/1, /*now=*/0, transit,
            [&](Tick delay) { launched.push_back(delay); });
  return launched;
}

TEST(ExactOnceTest, RouteSendWithoutPlanLaunchesOnceAtBaseTransit) {
  EXPECT_EQ(Route(nullptr), std::vector<Tick>{100});
  FaultPlan quiet(FaultConfig{});
  EXPECT_EQ(Route(&quiet, 33), std::vector<Tick>{33});
}

TEST(ExactOnceTest, RouteSendForcedDropLaunchesNothing) {
  FaultConfig cfg;
  cfg.force_drop_requests = 1;
  FaultPlan plan(cfg);
  EXPECT_TRUE(Route(&plan).empty());
  EXPECT_EQ(Route(&plan).size(), 1u);  // the force knob covers one send

  FaultConfig reply_cfg;
  reply_cfg.force_drop_replies = 1;
  FaultPlan reply_plan(reply_cfg);
  std::vector<Tick> launched;
  const FaultPlan::Decision d =
      RouteSend(&reply_plan, Reply(1, 0), 0, 1, 0, 100, [&](Tick t) { launched.push_back(t); });
  EXPECT_TRUE(d.drop);
  EXPECT_TRUE(launched.empty());
}

TEST(ExactOnceTest, RouteSendForcedDuplicateLaunchesTwice) {
  FaultConfig cfg;
  cfg.force_dup_requests = 1;
  cfg.max_extra_delay = 8;
  FaultPlan plan(cfg);
  const std::vector<Tick> launched = Route(&plan);
  ASSERT_EQ(launched.size(), 2u);
  EXPECT_EQ(launched[0], 100u);
  EXPECT_GE(launched[1], 101u);
  EXPECT_LE(launched[1], 108u);
}

}  // namespace
}  // namespace hsim

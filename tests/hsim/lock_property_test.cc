// Parameterized property sweep over the simulated locks: for every
// (algorithm, processor count, hold time) combination, verify the three
// invariants any lock must satisfy under the deterministic machine model:
//
//   1. mutual exclusion (never two holders),
//   2. work conservation (critical-section time fits inside elapsed time),
//   3. completion (every requested acquisition is eventually granted).

#include <cstdint>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "src/hsim/engine.h"
#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {
namespace {

using Param = std::tuple<LockKind, std::uint32_t /*procs*/, Tick /*hold*/>;

class SimLockSweep : public ::testing::TestWithParam<Param> {};

TEST_P(SimLockSweep, Invariants) {
  const auto [kind, procs, hold] = GetParam();
  Engine engine;
  Machine machine(&engine, MachineConfig{});
  auto lock = MakeSimLock(&machine, kind, 0);

  struct State {
    int inside = 0;
    bool overlap = false;
    std::uint64_t acquisitions = 0;
    Tick cs_time = 0;
  } state;

  constexpr int kIters = 25;
  for (std::uint32_t p = 0; p < procs; ++p) {
    engine.Spawn([](Processor* proc, SimLock* l, State* s, Tick h) -> Task<void> {
      for (int i = 0; i < kIters; ++i) {
        co_await l->Acquire(*proc);
        if (++s->inside != 1) {
          s->overlap = true;
        }
        ++s->acquisitions;
        s->cs_time += h;
        co_await proc->Compute(h);
        --s->inside;
        co_await l->Release(*proc);
        co_await proc->Compute(11);
      }
    }(&machine.processor(p), lock.get(), &state, hold));
  }
  const Tick elapsed = engine.RunUntilIdle();

  EXPECT_FALSE(state.overlap) << "mutual exclusion violated";
  EXPECT_EQ(state.acquisitions, static_cast<std::uint64_t>(procs) * kIters)
      << "an acquisition was lost";
  EXPECT_GE(elapsed, state.cs_time) << "more critical-section time than wall time";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimLockSweep,
    ::testing::Combine(::testing::Values(LockKind::kSpin35us, LockKind::kSpin2ms, LockKind::kMcs,
                                         LockKind::kMcsH1, LockKind::kMcsH2, LockKind::kCna,
                                         LockKind::kHmcsT, LockKind::kFissile),
                       ::testing::Values(1u, 3u, 7u, 16u),
                       ::testing::Values(Tick(0), Tick(120))),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = LockKindName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_p" + std::to_string(std::get<1>(info.param)) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace hsim

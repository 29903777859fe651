// Test-and-set spin lock with exponential backoff (Figure 3c), written once
// over the memory backend.
//
// acquire:  while test_and_set(L) == locked: delay; delay *= 2 (capped)
// release:  swap(L, 0)
//
// HECTOR's only atomic primitive is swap, so both the test-and-set and the
// release are atomic swaps (two memory accesses each at the lock's home
// module).  Uncontended instruction cost matches Figure 4's "Spin" row:
// 2 atomic, 0 memory, 1 register, 3 branch instructions per lock/unlock pair.
//
// Under contention every retry crosses the interconnect, which is precisely
// the source of the second-order effects the Distributed Locks avoid.  The
// backoff cap is the tuning knob the paper evaluates at 35 us and 2 ms: a
// small cap keeps uncontended latency low but floods the interconnect under
// load; a large cap is gentle on the memory system but invites starvation.

#ifndef HLOCK_ALGO_SPIN_H_
#define HLOCK_ALGO_SPIN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class B>
class SpinCore {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  static constexpr std::uint64_t kUnlocked = 0;
  static constexpr std::uint64_t kLocked = 1;
  static constexpr std::uint64_t kBaseBackoff = 4;  // a handful of instructions
  // The native default cap, in pause instructions; the simulated kinds pass
  // the paper's 35 us and 2 ms caps in ticks.
  static constexpr std::uint64_t kDefaultMaxBackoff = 1024;

  SpinCore(B* b, std::uint32_t home, std::uint64_t max_backoff = kDefaultMaxBackoff,
           std::string name = "spin")
      : b_(b), max_backoff_(max_backoff), name_(std::move(name)) {
    b_->InitWord(word_, home, kUnlocked);
  }
  SpinCore(const SpinCore&) = delete;
  SpinCore& operator=(const SpinCore&) = delete;

  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::LockProbe::Wait wait = probe_.Begin(Caller<B>{b_, ctx});
    // First attempt: test_and_set; then the uncontended exit charges the
    // delay-register init, the test branch and the return (Figure 4: Spin
    // row, acquire half).
    std::uint64_t old = co_await b_->FetchStore(ctx, word_, kLocked, std::memory_order_acquire);
    co_await b_->Exec(ctx, 1, 2);
    std::uint64_t delay = kBaseBackoff;
    if (old == kLocked) {
      probe_.Queue(wait, Caller<B>{b_, ctx});
    }
    while (old == kLocked) {
      // Back off without generating memory traffic, then retry the swap.  As
      // in Figure 3c the delay doubles deterministically from a small base:
      // fresh contenders retry rapidly, which is precisely what floods the
      // lock's memory module and station bus under bursty demand.
      retries_.fetch_add(1, std::memory_order_relaxed);
      co_await b_->BackoffUnits(ctx, delay, /*at_cap=*/delay >= max_backoff_);
      delay = std::min(delay * 2, max_backoff_);
      old = co_await b_->FetchStore(ctx, word_, kLocked, std::memory_order_acquire);
      co_await b_->Exec(ctx, 1, 1);
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    probe_.Grant(wait, Caller<B>{b_, ctx});
    b_->EndSpan(ctx, span);
  }

  TaskT<void> Release(Ctx& ctx) {
    probe_.Release(Caller<B>{b_, ctx});
    // HECTOR has no plain way to order an uncached store after the critical
    // section's accesses, so the release is also a swap (counted atomic).
    co_await b_->FetchStore(ctx, word_, kUnlocked, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
    b_->ReleaseInstant(ctx, name_);
  }

  TaskT<bool> TryAcquire(Ctx& ctx) {
    const std::uint64_t old =
        co_await b_->FetchStore(ctx, word_, kLocked, std::memory_order_acquire);
    co_await b_->Exec(ctx, 1, 1);
    const bool taken = old == kUnlocked;
    if (taken) {
      acquisitions_.fetch_add(1, std::memory_order_relaxed);
      probe_.Grab(Caller<B>{b_, ctx});
    }
    co_return taken;
  }

  std::uint64_t max_backoff() const { return max_backoff_; }
  const std::string& name() const { return name_; }

  // Contention statistics.
  std::uint64_t acquisitions() const { return acquisitions_.load(std::memory_order_relaxed); }
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  B* b_;
  typename B::Word word_;
  std::uint64_t max_backoff_;
  std::string name_;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> retries_{0};
  hprof::LockProbe probe_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_SPIN_H_

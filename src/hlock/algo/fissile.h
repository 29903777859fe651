// Fissile lock: a test-and-set fast path over an MCS slow path, written once
// over the memory backend.
//
// The uncontended acquire is a single swap on the outer word -- cheaper even
// than H2-MCS's swap (no queue-node bookkeeping, and the release is one store
// with no repair protocol).  Under contention, callers that fail the fast
// path fall into a full MCS queue ("fission" into the slow path); the queue
// serializes the slow-path waiters, and only its head competes with fast-path
// arrivals for the outer word, bounding the TAS storm to at most two
// contenders regardless of queue depth (cf. Dice's "Malthusian" / compact
// fast-path locks).
//
// The price is fairness: a fast-path arrival can barge past the whole queue.
// The benches measure exactly that trade against the FIFO Distributed Locks.
//
// Memory orders: outer swap acquire (release store on unlock); inner queue
// per McsCore.  The outer word is the lock; the inner lock only orders
// slow-path waiters and publishes nothing about the protected data.

#ifndef HLOCK_ALGO_FISSILE_H_
#define HLOCK_ALGO_FISSILE_H_

#include <cstdint>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/mcs.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class B>
class FissileCore {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  // Fast-path swap attempts before fissioning into the queue.
  static constexpr std::uint32_t kDefaultFastAttempts = 2;

  // `home` is the module holding the outer word and the inner queue's tail.
  // `broken_barge` is a deliberate bug switch for the model-checking tests:
  // a slow-path caller enters the critical section straight off the inner
  // queue grant, without winning the outer word -- so it runs concurrently
  // with a fast-path holder (hcheck catches the mutual exclusion violation).
  FissileCore(B* b, std::uint32_t home, std::uint32_t fast_attempts = kDefaultFastAttempts,
              bool broken_barge = false)
      : b_(b),
        fast_attempts_(fast_attempts == 0 ? 1 : fast_attempts),
        broken_barge_(broken_barge),
        inner_(b, home, McsVariant::kOriginal),
        name_("fissile") {
    b_->InitWord(outer_, home, 0);
  }
  FissileCore(const FissileCore&) = delete;
  FissileCore& operator=(const FissileCore&) = delete;

  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::LockProbe::Wait wait = probe_.Begin(Caller<B>{b_, ctx});

    // Fast path: a few bare swaps on the outer word.
    typename B::SpinWait sw = b_->MakeSpinWait();
    for (std::uint32_t attempt = 0; attempt < fast_attempts_; ++attempt) {
      const std::uint64_t old =
          co_await b_->FetchStore(ctx, outer_, 1, std::memory_order_acquire);
      co_await b_->Exec(ctx, 1, 2);
      if (old == 0) {
        probe_.Grant(wait, Caller<B>{b_, ctx});
        b_->EndSpan(ctx, span);
        co_return;
      }
      wait.contended = true;  // a fast-path retry waits without queueing
      co_await b_->SpinPause(ctx, sw);
    }

    // Slow path: queue up, and as queue head spin for the outer word.  The
    // inner lock is released before entering the critical section -- the
    // outer word alone protects the data.
    probe_.Queue(wait, Caller<B>{b_, ctx});
    co_await inner_.Acquire(ctx);
    if (!broken_barge_) {
      while (true) {
        const std::uint64_t old =
            co_await b_->FetchStore(ctx, outer_, 1, std::memory_order_acquire);
        co_await b_->Exec(ctx, 1, 2);
        if (old == 0) {
          break;
        }
        co_await b_->SpinPause(ctx, sw);
      }
    }
    // BUG when broken_barge_ (deliberate, for hcheck): skip the outer fight
    // and run concurrently with any fast-path holder.
    co_await inner_.Release(ctx);
    probe_.Grant(wait, Caller<B>{b_, ctx});
    b_->EndSpan(ctx, span);
  }

  TaskT<void> Release(Ctx& ctx) {
    probe_.Release(Caller<B>{b_, ctx});
    b_->ReleaseInstant(ctx, name_);
    co_await b_->Store(ctx, outer_, 0, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
  }

  TaskT<bool> TryAcquire(Ctx& ctx) {
    const std::uint64_t old =
        co_await b_->FetchStore(ctx, outer_, 1, std::memory_order_acquire);
    co_await b_->Exec(ctx, 1, 1);
    const bool taken = old == 0;
    if (taken) {
      probe_.Grab(Caller<B>{b_, ctx});
    }
    co_return taken;
  }

  std::uint32_t fast_attempts() const { return fast_attempts_; }
  const std::string& name() const { return name_; }

  // Attaches a profiling site (null detaches); recording is host-side only,
  // so a profiled run is operation-identical to an unprofiled one.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  B* b_;
  std::uint32_t fast_attempts_;
  bool broken_barge_;
  McsCore<B> inner_;
  std::string name_;
  typename B::Word outer_;  // 1 = held; the actual lock
  hprof::LockProbe probe_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_FISSILE_H_


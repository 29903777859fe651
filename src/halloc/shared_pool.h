// Shared-free-list baseline: one lock, one stack, one home module.
//
// This is the allocator the slab layer replaces -- and exactly the coarse
// structure the paper argues against: every allocate/free from every cluster
// serializes on one lock word and walks a list whose head and link words all
// live in a single memory module, so at 16 processors 12 of 16 touch it
// across the ring on every operation.  bench/alloc_scaling races it against
// SlabAllocatorCore to reproduce the paper's locality argument for the
// allocation path; it is not intended for production use.
//
// Same ref contract as the slab core (1..capacity(), kNil on exhaustion) and
// the same hprof hook: set_lock_site() profiles the pool lock, so the bench
// can compare the shared lock's cross-cluster handoff mix against the slab
// depot's.

#ifndef HALLOC_SHARED_POOL_H_
#define HALLOC_SHARED_POOL_H_

#include <cstdint>
#include <memory>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace halloc {

template <class B>
class SharedPoolCore {
 public:
  using Ctx = typename B::Ctx;
  using Word = typename B::Word;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  static constexpr std::uint64_t kNil = 0;
  static constexpr std::uint64_t kPollBase = 16;
  static constexpr std::uint64_t kPollCap = 512;

  // All pool words -- lock, head, and every link -- are homed at `home`: the
  // unhomed shared pool the slab allocator's per-cluster ranges replace.
  SharedPoolCore(B* b, std::uint64_t capacity, std::uint32_t home = 0)
      : b_(b), capacity_(capacity), next_(new Word[capacity]) {
    b_->InitWord(lock_, home, 0);
    // Free all refs, low first on top: the same initial order the slab
    // core's lazy carve hands out.
    b_->InitWord(head_, home, capacity == 0 ? kNil : 1);
    for (std::uint64_t i = 0; i < capacity; ++i) {
      b_->InitWord(next_[i], home, i + 2 <= capacity ? i + 2 : kNil);
    }
  }
  SharedPoolCore(const SharedPoolCore&) = delete;
  SharedPoolCore& operator=(const SharedPoolCore&) = delete;

  TaskT<std::uint64_t> Alloc(Ctx& ctx) {
    co_await Lock(ctx);
    const std::uint64_t ref =
        co_await b_->Load(ctx, head_, std::memory_order_relaxed);
    co_await b_->Exec(ctx, 0, 1);
    if (ref == kNil) {
      ++fails_;
      co_await Unlock(ctx);
      co_return kNil;
    }
    const std::uint64_t next =
        co_await b_->Load(ctx, next_[ref - 1], std::memory_order_relaxed);
    co_await b_->Store(ctx, head_, next, std::memory_order_relaxed);
    ++allocs_;
    co_await Unlock(ctx);
    co_return ref;
  }

  TaskT<void> Free(Ctx& ctx, std::uint64_t ref) {
    B::Check(ref >= 1 && ref <= capacity_,
             "halloc: shared-pool free of out-of-range ref");
    co_await Lock(ctx);
    const std::uint64_t head =
        co_await b_->Load(ctx, head_, std::memory_order_relaxed);
    co_await b_->Store(ctx, next_[ref - 1], head, std::memory_order_relaxed);
    co_await b_->Store(ctx, head_, ref, std::memory_order_relaxed);
    ++frees_;
    co_await Unlock(ctx);
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t frees() const { return frees_; }
  std::uint64_t fails() const { return fails_; }

  void set_lock_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* lock_site() const { return probe_.site(); }

 private:
  TaskT<void> Lock(Ctx& ctx) {
    hprof::LockProbe::Wait wait = probe_.Begin(hlock::algo::Caller<B>{b_, ctx});
    std::uint64_t delay = kPollBase;
    while (true) {
      const bool won = co_await b_->CompareSwap(ctx, lock_, 0, 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      if (won) {
        break;
      }
      probe_.Queue(wait, hlock::algo::Caller<B>{b_, ctx});
      co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
      delay = delay < kPollCap ? delay * 2 : kPollCap;
    }
    probe_.Grant(wait, hlock::algo::Caller<B>{b_, ctx});
  }

  TaskT<void> Unlock(Ctx& ctx) {
    probe_.Release(hlock::algo::Caller<B>{b_, ctx});
    co_await b_->Store(ctx, lock_, 0, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
  }

  B* b_;
  std::uint64_t capacity_;
  Word lock_;
  Word head_;
  std::unique_ptr<Word[]> next_;  // intrusive links, one per object
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
  std::uint64_t fails_ = 0;
  hprof::LockProbe probe_;
};

}  // namespace halloc

#endif  // HALLOC_SHARED_POOL_H_

// Distributed (MCS queue) locks, written once over the memory backend: the
// original Mellor-Crummey & Scott algorithm and the paper's two HURRICANE
// modifications (Figure 3a/3b).
//
// HECTOR supports only atomic swap (fetch_and_store), so the release path is
// the swap-only MCS variant: releasing may store nil into the lock word even
// though a successor exists, in which case the queue must be repaired (the
// "usurper" dance).  The paper's modifications:
//
//   H1: the per-processor queue node is initialized once, before first use,
//       and re-initialized on the *contended* path whenever it is modified.
//       This removes the `I->next := nil` store from the uncontended acquire.
//
//   H2: the `if I->next != nil` successor check is removed from release; the
//       release always swaps nil into the lock word.  This removes a load
//       and a branch from the uncontended release at the cost of a constant
//       queue-repair overhead whenever there *is* a successor.
//
// Under the simulator backend the uncontended instruction counts match
// Figure 4 exactly:
//   MCS    2 atomic / 2 mem / 3 reg / 5 br
//   H1-MCS 2 atomic / 1 mem / 3 reg / 5 br
//   H2-MCS 2 atomic / 0 mem / 3 reg / 4 br
//
// Queue links are held as caller id + 1 (0 = nil) so the same body runs on
// word-valued backends; waiters spin on the `locked` flag in their own node,
// which the simulator homes on their local memory module -- spinning
// generates no bus or ring traffic, the whole point of Distributed Locks.
//
// Memory orders (honoured natively, ignored by the simulator):
//   tail swap acq_rel; predecessor link store release; grant store release;
//   spin load acquire; rest-state re-initializations relaxed (PostStore).

#ifndef HLOCK_ALGO_MCS_H_
#define HLOCK_ALGO_MCS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/hlock/algo/backend.h"
#include "src/hlock/padded.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

enum class McsVariant {
  kOriginal,  // Figure 3a
  kH1,        // first modification only
  kH2,        // both modifications (Figure 3b)
};

inline const char* McsVariantName(McsVariant v) {
  switch (v) {
    case McsVariant::kOriginal:
      return "mcs";
    case McsVariant::kH1:
      return "h1-mcs";
    case McsVariant::kH2:
      return "h2-mcs";
  }
  return "mcs?";
}

template <class B>
class McsCore {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  static constexpr std::uint64_t kNil = 0;

  // `home` is the module holding the lock (tail) word; one queue node per
  // caller is placed on that caller's local module.
  McsCore(B* b, std::uint32_t home, McsVariant variant)
      : b_(b), variant_(variant), name_(McsVariantName(variant)) {
    const std::uint32_t n = b_->NumCtxs();
    nodes_ = std::make_unique<Node[]>(n);
    b_->InitWord(tail_, home, kNil);
    for (std::uint32_t i = 0; i < n; ++i) {
      // For H1/H2 the rest state is pre-initialized: next == nil, locked == 1
      // (ready to wait); the contended paths below restore this invariant
      // whenever they modify a node.  The original algorithm initializes
      // next in acquire.
      b_->InitWord(nodes_[i].next, b_->HomeOf(i), kNil);
      b_->InitWord(nodes_[i].locked, b_->HomeOf(i), 1);
    }
  }
  McsCore(const McsCore&) = delete;
  McsCore& operator=(const McsCore&) = delete;

  TaskT<void> Acquire(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    Node& node = nodes_[me - 1];
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::LockProbe::Wait wait = probe_.Begin(Caller<B>{b_, ctx});

    if (variant_ == McsVariant::kOriginal) {
      // I->next := nil  -- hoisted out of the critical path by modification H1.
      co_await b_->Store(ctx, node.next, kNil, std::memory_order_relaxed);
    }

    const std::uint64_t pred =
        co_await b_->FetchStore(ctx, tail_, me, std::memory_order_acq_rel);
    // Compare predecessor against nil, branch, return (uncontended exit).
    co_await b_->Exec(ctx, 1, 2);
    if (pred == kNil) {
      probe_.Grant(wait, Caller<B>{b_, ctx});
      b_->EndSpan(ctx, span);
      co_return;
    }

    // Contended path: link behind the predecessor and spin on our own node.
    probe_.Queue(wait, Caller<B>{b_, ctx});
    if (variant_ == McsVariant::kOriginal) {
      // I->locked := true.  H1/H2 keep the flag pre-set at rest.
      co_await b_->Store(ctx, node.locked, 1, std::memory_order_relaxed);
    }
    co_await b_->Store(ctx, nodes_[pred - 1].next, me, std::memory_order_release);
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t locked =
          co_await b_->Load(ctx, node.locked, std::memory_order_acquire);
      co_await b_->Exec(ctx, 0, 1);
      if (locked == 0) {
        break;
      }
      // Pace the spin: the flag is local, but a back-to-back load loop would
      // monopolize this caller's own memory module and stall remote accesses
      // to the data that happens to live there.
      co_await b_->SpinPause(ctx, sw);
    }
    if (variant_ != McsVariant::kOriginal) {
      // Re-establish the rest-state invariant: the releaser cleared our flag.
      // The store is absorbed by the write buffer (local word, nothing reads
      // it until our next acquire), so modification 1 does not lengthen the
      // handoff chain under contention.
      b_->PostStore(ctx, node.locked, 1);
    }
    probe_.Grant(wait, Caller<B>{b_, ctx});
    b_->EndSpan(ctx, span);
  }

  TaskT<void> Release(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    Node& node = nodes_[me - 1];
    probe_.Release(Caller<B>{b_, ctx});
    b_->ReleaseInstant(ctx, name_);

    std::uint64_t succ = kNil;
    if (variant_ != McsVariant::kH2) {
      // Original / H1: check for a known successor first.
      succ = co_await b_->Load(ctx, node.next, std::memory_order_acquire);
      co_await b_->Exec(ctx, 0, 1);
      if (succ != kNil) {
        if (variant_ == McsVariant::kH1) {
          b_->PostStore(ctx, node.next, kNil);  // re-init (contended, buffered)
        }
        co_await b_->Store(ctx, nodes_[succ - 1].locked, 0, std::memory_order_release);
        co_await b_->Exec(ctx, 1, 2);
        co_return;
      }
    }

    // Swap nil into the lock word.  If we were the tail, the lock is free and
    // we are done -- this is the whole uncontended release for H2.
    const std::uint64_t old_tail =
        co_await b_->FetchStore(ctx, tail_, kNil, std::memory_order_acq_rel);
    co_await b_->Exec(ctx, 2, 2);
    if (old_tail == me) {
      co_return;
    }

    // Someone enqueued behind us (and under H2 possibly long ago): we have
    // wrongly freed the lock, so repair the queue.  Any caller that swapped
    // itself onto the nil lock word in the window believes it holds the lock
    // (the "usurper"); restore the real tail and splice our waiters after it.
    repairs_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t usurper =
        co_await b_->FetchStore(ctx, tail_, old_tail, std::memory_order_acq_rel);
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (succ == kNil) {
      succ = co_await b_->Load(ctx, node.next, std::memory_order_acquire);
      co_await b_->Exec(ctx, 0, 1);
      if (succ == kNil) {
        co_await b_->SpinPause(ctx, sw);
      }
    }
    if (variant_ != McsVariant::kOriginal) {
      b_->PostStore(ctx, node.next, kNil);  // re-init (contended, buffered)
    }
    co_await b_->Exec(ctx, 0, 1);
    if (usurper != kNil) {
      // The usurper chain runs first; append our waiters after its tail.
      co_await b_->Store(ctx, nodes_[usurper - 1].next, succ, std::memory_order_release);
    } else {
      co_await b_->Store(ctx, nodes_[succ - 1].locked, 0, std::memory_order_release);
    }
    co_await b_->Exec(ctx, 1, 1);
  }

  // A Distributed Lock acquires by unconditional swap; a true try-acquire
  // needs CAS (a modern-hardware comparison point): grab only if free.
  TaskT<bool> TryAcquire(Ctx& ctx) {
    const std::uint64_t me = b_->CtxId(ctx) + 1;
    const bool taken = co_await b_->CompareSwap(ctx, tail_, kNil, me,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire);
    if (taken) {
      probe_.Grab(Caller<B>{b_, ctx});
    }
    co_return taken;
  }

  // Number of contended releases that had to repair the queue.
  std::uint64_t repairs() const { return repairs_.load(std::memory_order_relaxed); }

  McsVariant variant() const { return variant_; }
  const std::string& name() const { return name_; }

  // Attaches a profiling site (null detaches); recording is host-side only,
  // so a profiled run is operation-identical to an unprofiled one.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  struct alignas(kCacheLineSize) Node {
    typename B::Word next;    // successor's caller id + 1, or 0 (nil)
    typename B::Word locked;  // 1 while the owner must wait
  };

  B* b_;
  McsVariant variant_;
  std::string name_;
  typename B::Word tail_;  // caller id + 1 of the queue tail, or 0 (free)
  std::unique_ptr<Node[]> nodes_;
  std::atomic<std::uint64_t> repairs_{0};
  hprof::LockProbe probe_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_MCS_H_

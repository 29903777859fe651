// Native Distributed (MCS queue) locks: the classic algorithm and the
// HURRICANE modifications H1 and H2, ported faithfully from Figure 3.
//
// HECTOR only has atomic swap, so the H-variants use the *swap-only* release:
// a release may store nil into the tail even though a successor exists, and
// must then repair the queue (the "usurper" protocol).  Modern hardware has
// compare-and-swap; `McsLock` (the classic form, explicit queue node, CAS
// release) is provided alongside so the swap-only overhead can be measured
// (see bench/ablation_mcs_mods).
//
//   - McsLock:   caller-provided QNode, CAS release (Mellor-Crummey & Scott).
//   - McsH1Lock: per-thread pre-initialized nodes (modification 1): the
//                uncontended acquire has no node-initialization store.
//   - McsH2Lock: H1 + release without the successor check (modification 2):
//                the uncontended release is a single swap; contended releases
//                always repair.
//
// All variants are FIFO-fair (up to usurpation windows in the swap-only
// release) and waiters spin on their own cache line.
//
// Every lock is templated on the Platform policy (src/hlock/platform.h); the
// unsuffixed aliases bind StdPlatform and are the production types.  The
// hcheck model checker instantiates the same code with hcheck::Platform to
// schedule-check it (tests/hcheck/mcs_locks_hcheck_test.cc).

#ifndef HLOCK_MCS_LOCKS_H_
#define HLOCK_MCS_LOCKS_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/algo/mcs.h"
#include "src/hlock/native_lock.h"
#include "src/hlock/padded.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// Classic MCS lock with an explicit, caller-owned queue node and CAS release.
// lock() is split into Enqueue/WaitForGrant so a checker (or instrumented
// caller) can observe the moment a thread takes its place in the queue —
// that is the instant that fixes its FIFO position.
template <class Platform = StdPlatform>
class BasicMcsLock {
 public:
  struct QNode {
    typename Platform::template Atomic<QNode*> next{nullptr};
    typename Platform::template Atomic<bool> locked{false};
  };

  // Swaps the node into the queue.  Returns true if the lock was acquired
  // immediately (no predecessor); otherwise the caller holds a queue position
  // and must call WaitForGrant() before entering the critical section.
  bool Enqueue(QNode& node) {
    node.next.store(nullptr, std::memory_order_relaxed);
    QNode* pred = tail_.exchange(&node, std::memory_order_acq_rel);
    if (pred == nullptr) {
      return true;
    }
    node.locked.store(true, std::memory_order_relaxed);
    pred->next.store(&node, std::memory_order_release);
    return false;
  }

  void WaitForGrant(QNode& node) {
    typename Platform::Backoff backoff;
    while (node.locked.load(std::memory_order_acquire)) {
      backoff.Pause();
    }
  }

  void lock(QNode& node) {
    hprof::LockProbe::Wait wait = probe_.Begin(Caller{});
    if (!Enqueue(node)) {
      probe_.Queue(wait, Caller{});
      WaitForGrant(node);
    }
    probe_.Grant(wait, Caller{});
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Only lock()/unlock() record -- callers driving the split
  // Enqueue/WaitForGrant protocol directly are not profiled.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }

  void unlock(QNode& node) {
    probe_.Release(Caller{});
    QNode* succ = node.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      QNode* expected = &node;
      if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;
      }
      typename Platform::Backoff backoff;
      while ((succ = node.next.load(std::memory_order_acquire)) == nullptr) {
        backoff.Pause();
      }
    }
    succ->locked.store(false, std::memory_order_release);
  }

 private:
  using Caller = hprof::HostCaller<&Platform::ThreadId>;

  typename Platform::template Atomic<QNode*> tail_{nullptr};
  hprof::LockProbe probe_;
};

using McsLock = BasicMcsLock<>;

namespace internal {

// The H1/H2 variants: per-thread pre-initialized nodes and the swap-only
// release.  The algorithm body lives in src/hlock/algo/mcs.h, written once
// over the memory-backend concept and bound to native threads by NativeLock;
// repairs() is on core().  A named type rather than an alias, so
// diagnostics and typed-test names read HurricaneMcsLock.
template <class Platform, bool kCheckSuccessor>
class HurricaneMcsLock : public NativeLock<algo::McsCore, Platform> {
 public:
  HurricaneMcsLock()
      : NativeLock<algo::McsCore, Platform>(kCheckSuccessor ? algo::McsVariant::kH1
                                                            : algo::McsVariant::kH2) {}
};

}  // namespace internal

template <class Platform = StdPlatform>
using BasicMcsH1Lock = internal::HurricaneMcsLock<Platform, true>;
template <class Platform = StdPlatform>
using BasicMcsH2Lock = internal::HurricaneMcsLock<Platform, false>;

using McsH1Lock = BasicMcsH1Lock<>;
using McsH2Lock = BasicMcsH2Lock<>;

}  // namespace hlock

#endif  // HLOCK_MCS_LOCKS_H_

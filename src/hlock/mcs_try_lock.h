// TryLock support for Distributed Locks (Section 3.2).
//
// Two variants, matching the paper's two attempts:
//
//   McsTryV1Lock -- the per-thread queue node carries an in_use flag.  An
//   interrupt handler (or any re-entrant context) checks the flag before
//   enqueueing: if set, it has interrupted this thread's own lock code and
//   must not wait.  Not a true TryLock -- if the node is free the caller
//   enqueues and *waits* -- but it provably cannot deadlock with the context
//   it interrupted.  The flag is maintained on the common path, which is the
//   base-performance cost the paper observed.
//
//   McsTryV2Lock -- a true TryLock: a failed attempt abandons its queue node
//   in place and returns immediately; releases garbage-collect abandoned
//   nodes while handing the lock over (cf. Craig's timeout queue locks).
//   The paper's conclusion is reproduced by the tests and benches: under
//   saturation a queue lock is handed directly from holder to waiter, so
//   TryLock callers essentially never see it free -- retry-based access to a
//   fair lock is only probabilistically fair and starves.
//
// Both locks are templated on the Platform policy (src/hlock/platform.h);
// the unsuffixed aliases bind StdPlatform.  The StdPlatform instantiations
// are explicit (mcs_try_lock.cc) so other translation units link against one
// copy, exactly as with the previous out-of-line definitions.

#ifndef HLOCK_MCS_TRY_LOCK_H_
#define HLOCK_MCS_TRY_LOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/hlock/padded.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// --- Variant 1 ----------------------------------------------------------------
//
// Single-owner-context invariant: a given thread's queue node -- and in
// particular its in_use flag -- is touched only by that thread and by
// interrupt contexts *nested on* that thread (the paper's model: the handler
// borrows the CPU, so handler and interrupted code interleave, they never run
// concurrently).  Under that invariant program order alone keeps the flag
// coherent and relaxed accesses are correct; lock()/unlock() Check() the
// invariant's observable half (no re-entry, no unpaired unlock).
// LockFromInterrupt claims the flag with a CAS rather than a load+store pair
// so that even a cross-thread "interrupt" (as a simulated environment might
// deliver) cannot claim a node that is concurrently being claimed.
template <class Platform = StdPlatform>
class BasicMcsTryV1Lock {
 public:
  BasicMcsTryV1Lock() = default;
  BasicMcsTryV1Lock(const BasicMcsTryV1Lock&) = delete;
  BasicMcsTryV1Lock& operator=(const BasicMcsTryV1Lock&) = delete;

  void lock() {
    QNode& node = *nodes_[Platform::ThreadId()];
    Platform::Check(!node.in_use.load(std::memory_order_relaxed),
                    "McsTryV1Lock::lock re-entered while this thread's node is in "
                    "use; interrupt contexts must use LockFromInterrupt");
    node.in_use.store(true, std::memory_order_relaxed);  // common-path cost
    Enqueue(node);
  }

  // Interrupt-safe acquire: fails only when this thread's node is already in
  // use, i.e. the caller interrupted its own lock/unlock code and waiting
  // could deadlock.  Otherwise enqueues and waits like lock().
  bool LockFromInterrupt() {
    QNode& node = *nodes_[Platform::ThreadId()];
    bool expected = false;
    if (!node.in_use.compare_exchange_strong(expected, true, std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      return false;
    }
    Enqueue(node);
    return true;
  }

  // Attaches a profiling site (null detaches); wait/hold samples are host
  // nanoseconds.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }

  void unlock() {
    QNode& node = *nodes_[Platform::ThreadId()];
    Platform::Check(node.in_use.load(std::memory_order_relaxed),
                    "McsTryV1Lock::unlock without a matching lock on this thread");
    probe_.Release(Caller{});
    QNode* succ = node.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      QNode* expected = &node;
      if (!tail_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        typename Platform::Backoff backoff;
        while ((succ = node.next.load(std::memory_order_acquire)) == nullptr) {
          backoff.Pause();
        }
      }
    }
    if (succ != nullptr) {
      node.next.store(nullptr, std::memory_order_relaxed);
      succ->locked.store(false, std::memory_order_release);
    }
    // Release so a context that observes the node free also observes the
    // node's rest state restored (matters only if the observer is not this
    // thread; free for the in-order case).
    node.in_use.store(false, std::memory_order_release);  // common-path cost
  }

 private:
  struct QNode {
    typename Platform::template Atomic<QNode*> next{nullptr};
    typename Platform::template Atomic<bool> locked{true};
    typename Platform::template Atomic<bool> in_use{false};
  };

  using Caller = hprof::HostCaller<&Platform::ThreadId>;

  // Enqueues and waits for the grant.
  void Enqueue(QNode& node) {
    hprof::LockProbe::Wait wait = probe_.Begin(Caller{});
    QNode* pred = tail_.exchange(&node, std::memory_order_acq_rel);
    if (pred != nullptr) {
      probe_.Queue(wait, Caller{});
      pred->next.store(&node, std::memory_order_release);
      typename Platform::Backoff backoff;
      while (node.locked.load(std::memory_order_acquire)) {
        backoff.Pause();
      }
      node.locked.store(true, std::memory_order_relaxed);
    }
    probe_.Grant(wait, Caller{});
  }

  typename Platform::template Atomic<QNode*> tail_{nullptr};
  hprof::LockProbe probe_;
  Padded<QNode> nodes_[Platform::kMaxThreads];
};

// --- Variant 2 ----------------------------------------------------------------
template <class Platform = StdPlatform>
class BasicMcsTryV2Lock {
 public:
  BasicMcsTryV2Lock() = default;
  ~BasicMcsTryV2Lock() {
    Node* node = all_nodes_;
    while (node != nullptr) {
      Node* next = node->all_next;
      delete node;
      node = next;
    }
  }
  BasicMcsTryV2Lock(const BasicMcsTryV2Lock&) = delete;
  BasicMcsTryV2Lock& operator=(const BasicMcsTryV2Lock&) = delete;

  void lock() {
    bool immediate = false;
    Node* node = Enqueue(&immediate);
    if (!immediate) {
      typename Platform::Backoff backoff;
      while (node->state.load(std::memory_order_acquire) != kGranted) {
        backoff.Pause();
      }
    }
    *holders_[Platform::ThreadId()] = node;
  }

  // True TryLock: a single attempt.  On failure the queue node is left in the
  // queue, marked abandoned, to be reclaimed by a later release.
  bool try_lock() {
    bool immediate = false;
    Node* node = Enqueue(&immediate);
    if (immediate) {
      *holders_[Platform::ThreadId()] = node;
      return true;
    }
    // Try to abandon.  If the predecessor granted us the lock in the window,
    // the CAS fails and we own the lock after all.
    std::uint32_t expected = kWaiting;
    if (node->state.compare_exchange_strong(expected, kAbandoned, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      // The node stays in the queue; a release will reclaim it.
      return false;
    }
    *holders_[Platform::ThreadId()] = node;
    return true;
  }

  void unlock() {
    Node*& slot = *holders_[Platform::ThreadId()];
    Node* node = slot;
    Platform::Check(node != nullptr,
                    "McsTryV2Lock::unlock without a matching lock on this thread");
    slot = nullptr;
    while (true) {
      Node* succ = node->next.load(std::memory_order_acquire);
      if (succ == nullptr) {
        Node* expected = node;
        if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          FreeNode(node);
          return;
        }
        typename Platform::Backoff backoff;
        while ((succ = node->next.load(std::memory_order_acquire)) == nullptr) {
          backoff.Pause();
        }
      }
      // Either grant the successor the lock, or -- if it abandoned its attempt
      // -- reclaim its node and keep walking the queue.
      std::uint32_t expected = kWaiting;
      if (succ->state.compare_exchange_strong(expected, kGranted, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        FreeNode(node);
        return;
      }
      FreeNode(node);
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
      node = succ;  // abandoned: we own it now; continue with its successor
    }
  }

  std::uint64_t abandoned_nodes_reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // --- pool conservation (quiescent observers, for tests) ----------------------
  // With the lock free and no thread inside lock code, every node ever
  // allocated must sit in the free list exactly once: total_nodes() ==
  // pooled_nodes().  A leak (abandoned node never reclaimed) or a double free
  // (caught eagerly by FreeNode) breaks the equality.
  std::uint64_t total_nodes() const {
    std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
    return total_nodes_;
  }
  std::uint64_t pooled_nodes() const {
    std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
    std::uint64_t n = 0;
    for (Node* node = free_list_; node != nullptr; node = node->pool_next) {
      ++n;
    }
    return n;
  }

 private:
  enum State : std::uint32_t { kWaiting = 0, kGranted = 1, kAbandoned = 2 };

  struct Node {
    typename Platform::template Atomic<Node*> next{nullptr};
    typename Platform::template Atomic<std::uint32_t> state{kWaiting};
    Node* pool_next = nullptr;  // free-list link; guarded by pool_lock_
    Node* all_next = nullptr;   // allocation chain, for the destructor
    bool in_pool = false;       // guarded by pool_lock_; catches double frees
  };

  Node* AllocNode() {
    {
      std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
      if (free_list_ != nullptr) {
        Node* node = free_list_;
        free_list_ = node->pool_next;
        node->next.store(nullptr, std::memory_order_relaxed);
        node->state.store(kWaiting, std::memory_order_relaxed);
        node->pool_next = nullptr;
        node->in_pool = false;
        return node;
      }
    }
    // Owned until linked into the allocation chain: an hcheck abort thrown
    // by the guard's lock must not leak it.
    auto fresh = std::make_unique<Node>();
    std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
    Node* node = fresh.release();
    node->all_next = all_nodes_;
    all_nodes_ = node;
    ++total_nodes_;
    return node;
  }

  void FreeNode(Node* node) {
    // Nodes are type-stable: they are only ever reused as queue nodes of this
    // lock, never returned to the allocator while the lock lives.
    std::lock_guard<typename Platform::PoolLock> guard(pool_lock_);
    Platform::Check(!node->in_pool,
                    "McsTryV2Lock: queue node freed twice (reclaimed by two releases)");
    node->in_pool = true;
    node->pool_next = free_list_;
    free_list_ = node;
  }

  // Enqueues a fresh node; returns it and whether the lock was acquired
  // immediately (no predecessor).
  Node* Enqueue(bool* immediate) {
    Node* node = AllocNode();
    Node* pred = tail_.exchange(node, std::memory_order_acq_rel);
    if (pred == nullptr) {
      node->state.store(kGranted, std::memory_order_relaxed);
      *immediate = true;
    } else {
      pred->next.store(node, std::memory_order_release);
      *immediate = false;
    }
    return node;
  }

  typename Platform::template Atomic<Node*> tail_{nullptr};
  // Per-thread slot remembering the node this thread acquired with; each slot
  // is touched only by its owning thread, so consecutive holders do not race.
  Padded<Node*> holders_[Platform::kMaxThreads] = {};
  typename Platform::template Atomic<std::uint64_t> reclaimed_{0};

  // Node pool.  Nodes are freed by *other* threads (the releaser reclaims
  // abandoned nodes), so a per-thread cache does not work; the free list is
  // protected by a tiny lock, which is off the lock's fast path.
  mutable typename Platform::PoolLock pool_lock_;
  Node* free_list_ = nullptr;
  Node* all_nodes_ = nullptr;  // chain of every allocation, for the destructor
  std::uint64_t total_nodes_ = 0;  // guarded by pool_lock_
};

using McsTryV1Lock = BasicMcsTryV1Lock<>;
using McsTryV2Lock = BasicMcsTryV2Lock<>;

extern template class BasicMcsTryV1Lock<StdPlatform>;
extern template class BasicMcsTryV2Lock<StdPlatform>;

}  // namespace hlock

#endif  // HLOCK_MCS_TRY_LOCK_H_

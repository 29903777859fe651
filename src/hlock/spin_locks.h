// Native spin locks: test-and-set, test-and-test-and-set, exponential
// backoff, and ticket locks.
//
// These are the baselines the paper's Distributed Locks are measured against
// (Figure 3c).  All locks satisfy the BasicLockable requirements, so they
// compose with std::lock_guard / std::scoped_lock.
//
// TasSpinLock and TtasSpinLock live in bootstrap_locks.h (they sit beneath
// the platform policy and the algorithm layer) and are re-exported here.

#ifndef HLOCK_SPIN_LOCKS_H_
#define HLOCK_SPIN_LOCKS_H_

#include <atomic>
#include <cstdint>

#include "src/hlock/algo/spin.h"
#include "src/hlock/backoff.h"
#include "src/hlock/bootstrap_locks.h"
#include "src/hlock/native_lock.h"
#include "src/hlock/padded.h"

namespace hlock {

// Test-and-set with exponential backoff (Figure 3c).  The backoff cap is the
// tuning knob the paper evaluates at 35 us and 2 ms equivalents: a small cap
// keeps uncontended latency low but floods the interconnect under load; a
// large cap is gentle on the memory system but invites starvation.
//
// The algorithm body lives in src/hlock/algo/spin.h, shared with the
// simulator (the release is an exchange there too -- HECTOR fidelity the
// simulator requires and the native lock tolerates).  Constructed as
// (max_backoff_spins), default 1024.  A named type rather than an alias, so
// diagnostics and typed-test names read BackoffSpinLock.
class BackoffSpinLock : public NativeLock<algo::SpinCore> {
 public:
  using NativeLock::NativeLock;
};

// Ticket lock: FIFO-fair like a Distributed Lock, but all waiters spin on the
// same now-serving word, so it keeps the global-spinning problem.
class TicketLock {
 public:
  void lock() {
    const std::uint32_t ticket = next_->fetch_add(1, std::memory_order_relaxed);
    Backoff backoff;
    while (serving_->load(std::memory_order_acquire) != ticket) {
      backoff.Pause();
    }
  }

  bool try_lock() {
    const std::uint32_t serving = serving_->load(std::memory_order_relaxed);
    std::uint32_t expected = serving;
    return next_->compare_exchange_strong(expected, serving + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() { serving_->fetch_add(1, std::memory_order_release); }

 private:
  Padded<std::atomic<std::uint32_t>> next_{0};
  Padded<std::atomic<std::uint32_t>> serving_{0};
};

}  // namespace hlock

#endif  // HLOCK_SPIN_LOCKS_H_

// Quickstart: the native hybrid locking API in five minutes.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
//
// The library gives you:
//   1. the HURRICANE-modified Distributed (MCS) locks -- drop-in BasicLockable
//      mutexes that queue fairly and spin locally;
//   2. reserve-bit style hybrid tables -- one coarse lock, held briefly, plus
//      a per-entry reservation you can hold as long as you like;
//   3. a software interrupt gate for deferring work that must not run while
//      locks are held.

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/hlock/hybrid_table.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/soft_irq_gate.h"

int main() {
  // --- 1. Distributed Locks as plain mutexes ---------------------------------
  // McsH2Lock is the paper's production variant: the uncontended path is one
  // atomic swap to lock and one to unlock.
  hlock::McsH2Lock mutex;
  long counter = 0;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10000; ++i) {
          std::lock_guard<hlock::McsH2Lock> guard(mutex);
          counter = counter + 1;  // plain variable: the lock does the work
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  printf("1) 4 threads x 10000 increments under McsH2Lock: %ld (expect 40000)\n", counter);
  printf("   queue repairs performed by the swap-only release: %llu\n",
         static_cast<unsigned long long>(mutex.core().repairs()));

  // --- 2. the hybrid table ----------------------------------------------------
  // One coarse lock protects the whole table but is held only to find the
  // entry and flip its reserve word; the guard then owns the entry for as
  // long as needed without blocking operations on other keys.
  hlock::HybridTable<std::string, long> inventory;
  {
    auto apples = inventory.Acquire("apples");  // creates the entry
    apples.value() = 12;
    // While we hold "apples", another thread works on "pears" concurrently.
    std::thread other([&] {
      auto pears = inventory.Acquire("pears");
      pears.value() = 7;
    });
    other.join();
    apples.value() += 1;
  }  // guard released here
  printf("2) hybrid table: apples=%ld pears=%ld\n", *inventory.Peek("apples"),
         *inventory.Peek("pears"));

  // Handler-context code uses the no-spin probes and must be prepared to
  // retry -- the paper's optimistic deadlock-avoidance protocol.
  {
    auto held = inventory.Acquire("apples");
    auto probe = inventory.TryAcquire("apples");
    printf("   TryAcquire while reserved: %s (handlers fail instead of deadlocking)\n",
           probe ? "acquired?!" : "refused");
  }

  // --- 3. the software interrupt gate -----------------------------------------
  // Work posted while the gate is closed (we "hold a lock") is deferred and
  // runs, in arrival order, when the gate opens.
  hlock::SoftIrqGate gate;
  std::string log;
  {
    hlock::SoftIrqGate::Region masked(gate);
    gate.Post([&] { log += "B"; });
    log += "A";  // critical section work
  }  // gate opens: deferred work drains
  gate.Post([&] { log += "C"; });
  gate.Poll();
  printf("3) soft-irq gate ordering: %s (expect ABC)\n", log.c_str());

  return 0;
}

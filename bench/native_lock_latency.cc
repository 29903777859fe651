// Native (std::atomic) lock benchmarks on the host machine: the uncontended
// acquire/release cost of every lock in hlock, and small contended runs.
//
// This is meant as the modern-hardware counterpart of Section 4.1.1, where
// the H1/H2 modifications shave loads and branches off the MCS fast path.
// On host cores the result is inverted.  Uncontended, pinned to one core of
// a 4-core Intel Xeon (3 runs): mcs_h1 43-47 ns and mcs_h2 46-50 ns, against
// 17 ns for the hand-written classic MCS and 9-11 ns for TAS.  The H1/H2
// locks run on the algorithm layer, where every call heap-allocates a
// coroutine frame; that allocation, not the lock protocol, dominates their
// cost (ROADMAP item 7).  The simulator benches carry the paper's result.
//
// NOTE: contended results on a single-core host measure scheduler behaviour
// more than lock behaviour; the simulator benches carry the paper's
// contention results.

#include <benchmark/benchmark.h>

#include "bench/gbench_report.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/mcs_try_lock.h"
#include "src/hlock/spin_locks.h"

namespace {

template <typename Lock>
void BM_Uncontended(benchmark::State& state) {
  Lock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(&lock);
    lock.unlock();
  }
}

void BM_UncontendedClassicMcs(benchmark::State& state) {
  hlock::McsLock lock;
  hlock::McsLock::QNode node;
  for (auto _ : state) {
    lock.lock(node);
    benchmark::DoNotOptimize(&lock);
    lock.unlock(node);
  }
}

template <typename Lock>
void BM_Contended(benchmark::State& state) {
  static Lock lock;
  static std::int64_t counter = 0;
  for (auto _ : state) {
    lock.lock();
    counter = counter + 1;
    benchmark::DoNotOptimize(counter);
    lock.unlock();
  }
}

}  // namespace

BENCHMARK(BM_Uncontended<hlock::TasSpinLock>)->Name("uncontended/tas");
BENCHMARK(BM_Uncontended<hlock::TtasSpinLock>)->Name("uncontended/ttas");
BENCHMARK(BM_Uncontended<hlock::BackoffSpinLock>)->Name("uncontended/backoff");
BENCHMARK(BM_Uncontended<hlock::TicketLock>)->Name("uncontended/ticket");
BENCHMARK(BM_UncontendedClassicMcs)->Name("uncontended/mcs_classic");
BENCHMARK(BM_Uncontended<hlock::McsH1Lock>)->Name("uncontended/mcs_h1");
BENCHMARK(BM_Uncontended<hlock::McsH2Lock>)->Name("uncontended/mcs_h2");
BENCHMARK(BM_Uncontended<hlock::McsTryV1Lock>)->Name("uncontended/mcs_try_v1");
BENCHMARK(BM_Uncontended<hlock::McsTryV2Lock>)->Name("uncontended/mcs_try_v2");

BENCHMARK(BM_Contended<hlock::TtasSpinLock>)->Name("contended/ttas")->Threads(2);
BENCHMARK(BM_Contended<hlock::McsH2Lock>)->Name("contended/mcs_h2")->Threads(2);
BENCHMARK(BM_Contended<hlock::TicketLock>)->Name("contended/ticket")->Threads(2);

int main(int argc, char** argv) {
  return hbench::RunGoogleBench(argc, argv, "native_lock_latency");
}

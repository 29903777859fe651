// The memory-backend concept: one lock algorithm, three memories.
//
// Every lock algorithm in src/hlock/algo/ is written exactly once, as a
// coroutine over an abstract *memory backend* B.  A backend supplies the
// pieces that the native Platform policy (src/hlock/platform.h) and the
// HECTOR simulator's Processor API (src/hsim/machine.h) both provide, just
// with different spellings and costs:
//
//   typename B::Ctx       per-caller execution context (a thread id slot
//                         natively, a simulated Processor in hsim)
//   typename B::Word      one backend-owned 64-bit location.  Words are
//                         default-constructible and placed with
//                         b.InitWord(word, home_module, init) -- placement is
//                         what gives a word a NUMA home in the simulator and
//                         is a no-op natively.
//   typename B::SpinWait  per-acquisition local-spin pacing state (a
//                         Platform::Backoff natively, nothing in hsim where
//                         the pause is a fixed costed delay)
//   typename B::Deadline  an acquire budget: an absolute simulated-time
//                         deadline in hsim, a decrementing iteration budget
//                         natively (deterministic under hcheck -- wall-clock
//                         deadlines would break schedule replay)
//   template <class T> using TaskT
//                         the coroutine task type the algorithm bodies
//                         return: hsim::Task<T> (lazy, costed co_awaits) in
//                         the simulator, SyncTask<T> (below; every await is
//                         immediately ready) natively and under hcheck
//
// Operations (all carry std::memory_order parameters; the native backend
// honours them, the simulator -- a sequentially consistent machine with an
// explicit write buffer -- ignores them):
//
//   TaskT<u64>  Load(ctx, word, mo)
//   TaskT<void> Store(ctx, word, v, mo)
//   void        PostStore(ctx, word, v)       write-buffered store: the
//               simulator posts it (non-blocking, local module only), the
//               native backend issues a relaxed store
//   TaskT<u64>  FetchStore(ctx, word, v, mo)  atomic swap -- HECTOR's only RMW
//   TaskT<bool> CompareSwap(ctx, word, expected, desired, ok_mo, fail_mo)
//               CAS; not available on real HECTOR hardware, costed like one
//               atomic in the simulator (comparison-point rationale in
//               machine.h).  The beyond-the-paper locks (CNA, HMCS-T,
//               Fissile) assume CAS hardware.
//   TaskT<void> Exec(ctx, registers, branches)
//               charge register/branch instructions (simulator only; free
//               natively) -- this is what makes fig4 instruction counts
//               reproduce through the shared layer
//   TaskT<void> SpinPause(ctx, spin_wait)     one pacing step of a local spin
//               loop (fixed 16-tick delay in hsim; Platform::Backoff::Pause,
//               i.e. exactly one hcheck schedule point, natively)
//   TaskT<void> BackoffUnits(ctx, units)      an *explicit* backoff delay in
//               backend time units, used only by algorithms whose backoff is
//               part of the algorithm itself (Figure 3c's doubling delay)
//
// Topology and identity (host-side, free):
//
//   u32  CtxId(ctx)            dense caller id, < NumCtxs()
//   u32  NumCtxs()             queue-node array sizing
//   u32  ClusterOfCtx(id)      cluster (HECTOR station) of a caller
//   u32  NumClusters()
//   u32  HomeOf(id)            memory module local to a caller (for InitWord)
//   u64  Now(ctx)              ticks (simulated time / host ns); free
//   u64  RandomBelow(ctx, n)   jitter source (deterministic midpoint natively)
//   Deadline MakeDeadline(ctx, budget), bool Expired(ctx, deadline)
//   void Check(cond, msg)      algorithm invariant check (FailCheck under
//                              hcheck, abort in the simulator)
//   WithPool(f)                runs f under the backend's node-pool guard
//   AcquireSpan/EndSpan/ReleaseInstant   lock trace hooks (simulator only)
//
// Each core meets its backend through one adapter per side: hlock::NativeLock
// (src/hlock/native_lock.h) natively and under hcheck, hsim::SimCoreLock
// (src/hsim/locks/sim_lock.h) in the simulator.  Every core records its
// hprof profile through an hprof::LockProbe fed by algo::Caller (below).
//
// Not everything moved onto the layer.  TAS/TTAS/Ticket (spin_locks.h) stay
// hand-written: TtasSpinLock is the Platform::PoolLock -- the bootstrap lock
// *beneath* this layer -- and cannot be expressed through it without a cycle.
// BasicMcsLock keeps its own body (caller-owned nodes + CAS release: the
// modern-hardware comparison lock, a deliberately different algorithm).
// McsTryV1/V2 and SpinThenBlockLock stay hand-written over Platform: their
// semantics (interrupt re-entry, abandonable try, OS blocking) have no
// simulator mapping.  The Platform policy itself is not retired by this
// layer: NativeBackend<Platform> is built on it, and so are lock_free.h,
// soft_irq_gate.h, hybrid_table.h, hsvc's request_queue.h, halloc's
// slab_allocator.h, BasicMcsLock and McsTryV1/V2.  Everything the simulator duplicates --
// MCS/H1/H2, backoff spin, reserve bits -- plus the NUMA family lives here.

#ifndef HLOCK_ALGO_BACKEND_H_
#define HLOCK_ALGO_BACKEND_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

namespace hlock::algo {

// Acquire budget (MakeDeadline) that never expires.  Checking an infinite
// deadline costs nothing in any backend, so a timed acquire with this budget
// is operation-for-operation identical to the untimed algorithm.
inline constexpr std::uint64_t kInfiniteBudget = ~std::uint64_t{0};

// The calling context as a core's hprof::LockProbe reads it: clock, owner id
// and cluster, all host-side and read only while a site is attached.
template <class B>
struct Caller {
  B* b;
  typename B::Ctx& ctx;
  std::uint64_t Now() const { return b->Now(ctx); }
  std::uint32_t Id() const { return b->CtxId(ctx); }
  std::uint32_t Cluster() const { return b->ClusterOfCtx(Id()); }
};

// An already-available value, awaitable without suspending.  The native
// backend returns these from every operation, so an algorithm coroutine runs
// to completion synchronously inside the initial call.
template <typename T>
struct Ready {
  T value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() noexcept { return std::move(value); }
};

template <>
struct Ready<void> {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

// Eagerly-run coroutine task: initial_suspend = never, so the body executes
// synchronously (all its awaitables are Ready or other SyncTasks); by the
// time the caller holds the SyncTask the result -- or a captured exception --
// is already there.  Exceptions are rethrown from Get()/await_resume():
// hcheck unwinds checked code with its AbortExecution exception, which must
// pass through nested lock coroutines intact.
template <typename T>
class SyncTask {
 public:
  struct promise_type {
    T value{};
    std::exception_ptr error;

    SyncTask get_return_object() {
      return SyncTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  explicit SyncTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  SyncTask(SyncTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  SyncTask(const SyncTask&) = delete;
  SyncTask& operator=(const SyncTask&) = delete;
  ~SyncTask() {
    if (h_) {
      h_.destroy();
    }
  }

  T Get() {
    if (h_.promise().error) {
      std::rethrow_exception(h_.promise().error);
    }
    return std::move(h_.promise().value);
  }

  // Awaitable, so cores can co_await sub-cores (HMCS-T awaiting its
  // per-level TimeoutMcsCore) regardless of backend.
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return Get(); }

 private:
  std::coroutine_handle<promise_type> h_;
};

template <>
class SyncTask<void> {
 public:
  struct promise_type {
    std::exception_ptr error;

    SyncTask get_return_object() {
      return SyncTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  explicit SyncTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  SyncTask(SyncTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  SyncTask(const SyncTask&) = delete;
  SyncTask& operator=(const SyncTask&) = delete;
  ~SyncTask() {
    if (h_) {
      h_.destroy();
    }
  }

  void Get() {
    if (h_.promise().error) {
      std::rethrow_exception(h_.promise().error);
    }
  }

  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() { Get(); }

 private:
  std::coroutine_handle<promise_type> h_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_BACKEND_H_

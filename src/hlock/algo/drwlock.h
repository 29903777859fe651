// Distributed reader-writer lock: per-cluster reader counters, written once
// over the memory backend.
//
// The reserve-word protocol (reserve.h) counts readers in one shared word, so
// every reader entry bounces the same cache line -- and in the hybrid table
// every reader transition additionally funnels through the coarse chain lock.
// This lock distributes the reader side the way "High-Performance Distributed
// RMA Locks" evaluates: each cluster owns a padded counter word homed in that
// cluster's memory module, so an uncontended reader entry/exit touches only
// local memory.  A writer raises a global flag and then *sweeps* the cluster
// counters, waiting for each to drain; readers that arrive while the flag is
// up back their increment out and spin locally until the flag clears.
//
// Writer/writer exclusion is a separate single word (`wmutex`), deliberately
// split from the flag+sweep protocol (WriterArrive / WriterDepart) so an
// embedding structure that already serializes its writers -- the hybrid
// table's coarse chain lock -- can reuse that lock as the writer mutex and
// pay only for the sweep.
//
// Preference knob: kWriters (default) raises the flag immediately, so the
// writer waits only for in-flight readers; kReaders makes the writer first
// drain the counters *without* the flag raised, admitting readers that arrive
// ahead of it (readers stay fully parallel at the price of possible writer
// starvation -- the classic reader-preference trade).  Reader-side code is
// identical in both modes, which is what keeps the reader fast path two local
// operations.
//
// upgrade()/downgrade() follow the dgos rwspinlock API shape: TryUpgrade is a
// *try* -- two concurrent upgraders would deadlock waiting for each other's
// read hold, so the loser must release and reacquire; Downgrade re-enters the
// caller's cluster counter before the flag drops, so no writer can sneak in
// between.
//
// Memory orders (the table in DESIGN.md): reader increment (CAS success) and
// the flag load after it are seq_cst, and so are the writer's flag store and
// sweep loads -- the two sides form a store-load (Dekker) race that acquire/
// release alone would not order: a reader could publish its increment too
// late for the sweep while reading a stale flag.  Reader exit decrements with
// release (the sweep's loads take over the entry after all reader reads
// retire); WriterDepart clears the flag with release (publishing the writer's
// writes to the readers it admits).
//
// Deliberate-bug knobs for the model checker (tests/hcheck/drwlock_*):
// kBrokenSweep skips cluster 0 in the writer sweep (a reader there
// coexists with the writer -- hcheck catches the exclusion violation);
// kBrokenUnderflow double-decrements in the reader backout path (the counter
// underflow check fires, or a phantom reader admission breaks exclusion).

#ifndef HLOCK_ALGO_DRWLOCK_H_
#define HLOCK_ALGO_DRWLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

enum class DrwPreference : std::uint8_t {
  kWriters,  // flag up first, sweep once: bounded writer wait
  kReaders,  // flagless pre-drain: arriving readers overtake a waiting writer
};

enum class DrwBroken : std::uint8_t {
  kNone,
  kBrokenSweep,      // writer sweep skips cluster 0
  kBrokenUnderflow,  // reader backout decrements twice
};

template <class B>
class DrwLockCore {
 public:
  using Ctx = typename B::Ctx;
  using Word = typename B::Word;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  // The algorithm reads the cluster map (see NativeLock).
  static constexpr bool kClustered = true;

  // Doubling-delay poll pacing (backend time units) for waits whose length is
  // another context's hold: the reader's flag wait, the writer's sweep, and
  // the writer-mutex spin.  Fixed-interval polling of a *remote* word keeps
  // its home memory module saturated -- delaying the very store or decrement
  // being waited for -- so these waits back off like Figure 3c's spin lock.
  static constexpr std::uint64_t kPollBase = 16;
  static constexpr std::uint64_t kPollCap = 512;

  // `home` places the writer-side words (flag + writer mutex); each cluster's
  // reader counter is homed at that cluster's first context's module, which
  // is what makes the reader fast path local in the simulator.
  explicit DrwLockCore(B* b, std::uint32_t home = 0,
                       DrwPreference preference = DrwPreference::kWriters,
                       DrwBroken broken = DrwBroken::kNone)
      : b_(b),
        preference_(preference),
        broken_(broken),
        num_clusters_(b->NumClusters()),
        counters_(new PaddedWord[b->NumClusters()]),
        name_("drwlock"),
        reader_probes_(new hprof::LockProbe[b->NumCtxs()]) {
    b_->InitWord(wflag_, home, 0);
    b_->InitWord(wmutex_, home, 0);
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      b_->InitWord(counters_[c].w, ClusterHome(c), 0);
    }
  }
  DrwLockCore(const DrwLockCore&) = delete;
  DrwLockCore& operator=(const DrwLockCore&) = delete;

  // --- reader side ----------------------------------------------------------

  TaskT<void> AcquireShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    hprof::LockProbe& probe = reader_probes_[id];
    hprof::LockProbe::Wait wait = probe.Begin(Caller<B>{b_, ctx});
    Word& counter = counters_[b_->ClusterOfCtx(id)].w;
    while (true) {
      co_await BumpReader(ctx, counter);
      const std::uint64_t flag =
          co_await b_->Load(ctx, wflag_, std::memory_order_seq_cst);
      co_await b_->Exec(ctx, 0, 1);
      if (flag == 0) {
        break;  // admitted: the sweep (if any) will wait for our count
      }
      // A writer is (or was) sweeping: back the increment out so the sweep
      // can complete, then spin locally until the flag clears.
      co_await DropReader(ctx, counter, std::memory_order_release);
      if (broken_ == DrwBroken::kBrokenUnderflow) {
        // BUG (deliberate, for hcheck): a second decrement releases a count
        // we never held -- underflow, or a phantom admission for a racing
        // reader whose increment we just erased.
        co_await DropReader(ctx, counter, std::memory_order_release);
      }
      probe.Queue(wait, Caller<B>{b_, ctx});
      std::uint64_t delay = kPollBase;
      while (true) {
        const std::uint64_t f =
            co_await b_->Load(ctx, wflag_, std::memory_order_relaxed);
        co_await b_->Exec(ctx, 0, 1);
        if (f == 0) {
          break;
        }
        // Doubling delay, not fixed-interval polling: the flag's home module
        // also serves the writer's release store, and every waiting reader is
        // polling the same word.
        co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
        delay = delay < kPollCap ? delay * 2 : kPollCap;
      }
    }
    probe.Grant(wait, Caller<B>{b_, ctx});
  }

  // No-spin reader entry for handler context: false if a writer holds or is
  // sweeping the lock.
  TaskT<bool> TryAcquireShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    Word& counter = counters_[b_->ClusterOfCtx(id)].w;
    co_await BumpReader(ctx, counter);
    const std::uint64_t flag =
        co_await b_->Load(ctx, wflag_, std::memory_order_seq_cst);
    co_await b_->Exec(ctx, 0, 1);
    if (flag != 0) {
      co_await DropReader(ctx, counter, std::memory_order_release);
      co_return false;
    }
    reader_probes_[id].Grab(Caller<B>{b_, ctx});
    co_return true;
  }

  TaskT<void> ReleaseShared(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    reader_probes_[id].Release(Caller<B>{b_, ctx});
    co_await DropReader(ctx, counters_[b_->ClusterOfCtx(id)].w,
                        std::memory_order_release);
  }

  // --- writer side ----------------------------------------------------------

  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::LockProbe::Wait wait = writer_probe_.Begin(Caller<B>{b_, ctx});
    std::uint64_t delay = kPollBase;
    while (true) {
      const bool won = co_await b_->CompareSwap(ctx, wmutex_, 0, 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      if (won) {
        break;
      }
      writer_probe_.Queue(wait, Caller<B>{b_, ctx});
      co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
      delay = delay < kPollCap ? delay * 2 : kPollCap;
    }
    co_await WriterArriveTimed(ctx, wait);
    b_->EndSpan(ctx, span);
  }

  // No-spin writer entry: false if another writer holds the mutex *or* any
  // reader is in -- the flag is backed out rather than waited on.
  TaskT<bool> TryAcquire(Ctx& ctx) {
    const bool won = co_await b_->CompareSwap(ctx, wmutex_, 0, 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
    co_await b_->Exec(ctx, 1, 1);
    if (!won) {
      co_return false;
    }
    co_await b_->Store(ctx, wflag_, 1, std::memory_order_seq_cst);
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      const std::uint64_t readers =
          co_await b_->Load(ctx, counters_[c].w, std::memory_order_seq_cst);
      co_await b_->Exec(ctx, 0, 1);
      if (readers != 0) {
        co_await b_->Store(ctx, wflag_, 0, std::memory_order_release);
        co_await b_->Store(ctx, wmutex_, 0, std::memory_order_release);
        co_return false;
      }
    }
    writer_probe_.Grab(Caller<B>{b_, ctx});
    co_return true;
  }

  TaskT<void> Release(Ctx& ctx) {
    writer_probe_.Release(Caller<B>{b_, ctx});
    b_->ReleaseInstant(ctx, name_);
    co_await b_->Store(ctx, wflag_, 0, std::memory_order_release);
    co_await b_->Store(ctx, wmutex_, 0, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
  }

  // --- flag + sweep, for embedders that bring their own writer mutex -------
  // The caller must hold whatever serializes its writers (the hybrid table's
  // coarse chain lock) across Arrive..Depart; this pair only excludes
  // *readers*.

  TaskT<void> WriterArrive(Ctx& ctx) {
    co_await WriterArriveTimed(ctx, writer_probe_.Begin(Caller<B>{b_, ctx}));
  }

  TaskT<void> WriterDepart(Ctx& ctx) {
    writer_probe_.Release(Caller<B>{b_, ctx});
    co_await b_->Store(ctx, wflag_, 0, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
  }

  // --- upgrade / downgrade --------------------------------------------------

  // Upgrades a shared hold to exclusive.  A *try*: two upgraders would each
  // wait forever for the other's read count, so on a lost writer-mutex race
  // the caller must ReleaseShared and take the write path from scratch.  On
  // success the shared hold has been consumed.
  TaskT<bool> TryUpgrade(Ctx& ctx) {
    const bool won = co_await b_->CompareSwap(ctx, wmutex_, 0, 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
    co_await b_->Exec(ctx, 1, 1);
    if (!won) {
      co_return false;
    }
    hprof::LockProbe::Wait wait = writer_probe_.Begin(Caller<B>{b_, ctx});
    reader_probes_[b_->CtxId(ctx)].Release(Caller<B>{b_, ctx});
    co_await b_->Store(ctx, wflag_, 1, std::memory_order_seq_cst);
    // Drop our own read count *after* the flag is up: between the drop and
    // the sweep no new reader can slip in, so the sweep's zero is ours to
    // take exclusively.
    co_await DropReader(ctx, counters_[b_->ClusterOfCtx(b_->CtxId(ctx))].w,
                        std::memory_order_release);
    writer_probe_.Queue(wait, Caller<B>{b_, ctx});
    co_await Sweep(ctx);
    writer_probe_.Grant(wait, Caller<B>{b_, ctx});
    co_return true;
  }

  // Downgrades an exclusive hold to shared without a window: the caller's
  // cluster counter is re-entered *before* the flag drops, so a writer that
  // arrives next sweeps into our read hold and waits.
  TaskT<void> Downgrade(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    writer_probe_.Release(Caller<B>{b_, ctx});
    co_await BumpReader(ctx, counters_[b_->ClusterOfCtx(id)].w);
    reader_probes_[id].Grab(Caller<B>{b_, ctx});
    co_await b_->Store(ctx, wflag_, 0, std::memory_order_release);
    co_await b_->Store(ctx, wmutex_, 0, std::memory_order_release);
  }

  // --- introspection / profiling -------------------------------------------

  std::uint32_t num_clusters() const { return num_clusters_; }
  DrwPreference preference() const { return preference_; }
  const std::string& name() const { return name_; }

  // Attach the writer-side and reader-side profiling sites (null detaches;
  // reader holds and writer holds are different histograms).  Recording is
  // host-side only, so a profiled run is operation-identical to an
  // unprofiled one.  Not thread-safe against concurrent lock users.
  void set_site(hprof::LockSiteStats* site) { writer_probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return writer_probe_.site(); }
  void set_reader_site(hprof::LockSiteStats* site) {
    for (std::uint32_t id = 0; id < b_->NumCtxs(); ++id) {
      reader_probes_[id].set_site(site);
    }
  }

 private:
  // One counter per cluster, each on its own cache line: the whole point is
  // that cluster-local reader traffic never invalidates a remote line.
  struct alignas(64) PaddedWord {
    Word w;
  };

  std::uint32_t ClusterHome(std::uint32_t cluster) const {
    const std::uint32_t n = b_->NumCtxs();
    for (std::uint32_t id = 0; id < n; ++id) {
      if (b_->ClusterOfCtx(id) == cluster) {
        return b_->HomeOf(id);
      }
    }
    return 0;
  }

  // CAS-increment (HECTOR-style swap-only hardware never runs this lock; the
  // beyond-the-paper locks already assume CAS, see backend.h).
  TaskT<void> BumpReader(Ctx& ctx, Word& counter) {
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t v =
          co_await b_->Load(ctx, counter, std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      if (co_await b_->CompareSwap(ctx, counter, v, v + 1,
                                   std::memory_order_seq_cst,
                                   std::memory_order_relaxed)) {
        co_return;
      }
      co_await b_->SpinPause(ctx, sw);
    }
  }

  TaskT<void> DropReader(Ctx& ctx, Word& counter, std::memory_order ok_mo) {
    typename B::SpinWait sw = b_->MakeSpinWait();
    while (true) {
      const std::uint64_t v =
          co_await b_->Load(ctx, counter, std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      // A decrement from 0 would wrap into a phantom reader population no
      // sweep could ever drain.
      B::Check(v != 0, "drwlock reader count underflow");
      if (co_await b_->CompareSwap(ctx, counter, v, v - 1, ok_mo,
                                   std::memory_order_relaxed)) {
        co_return;
      }
      co_await b_->SpinPause(ctx, sw);
    }
  }

  // Waits for every cluster counter to drain.  seq_cst loads: they are the
  // writer's half of the Dekker race against reader increments.
  TaskT<void> Sweep(Ctx& ctx) {
    std::uint32_t first = 0;
    if (broken_ == DrwBroken::kBrokenSweep && num_clusters_ > 1) {
      // BUG (deliberate, for hcheck): never looks at cluster 0, so a reader
      // there runs concurrently with the "exclusive" holder.
      first = 1;
    }
    for (std::uint32_t c = first; c < num_clusters_; ++c) {
      std::uint64_t delay = kPollBase;
      while (true) {
        const std::uint64_t readers =
            co_await b_->Load(ctx, counters_[c].w, std::memory_order_seq_cst);
        co_await b_->Exec(ctx, 0, 1);
        if (readers == 0) {
          break;
        }
        // Back off between polls: the sweep's loads occupy the counter's home
        // module, which is exactly where the drain decrements must land.
        co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
        delay = delay < kPollCap ? delay * 2 : kPollCap;
      }
    }
  }

  TaskT<void> WriterArriveTimed(Ctx& ctx, hprof::LockProbe::Wait wait) {
    if (preference_ == DrwPreference::kReaders) {
      // Flagless pre-drain: readers arriving now are admitted ahead of us.
      // Only once the population hits zero does the flag go up, so the
      // definitive sweep below is near-instant in the common case.
      co_await Sweep(ctx);
    }
    co_await b_->Store(ctx, wflag_, 1, std::memory_order_seq_cst);
    co_await Sweep(ctx);
    writer_probe_.Grant(wait, Caller<B>{b_, ctx});
  }

  B* b_;
  DrwPreference preference_;
  DrwBroken broken_;
  std::uint32_t num_clusters_;
  Word wflag_;   // nonzero = a writer is sweeping or holding
  Word wmutex_;  // writer/writer exclusion for the standalone write path
  std::unique_ptr<PaddedWord[]> counters_;  // per-cluster reader populations
  std::string name_;
  hprof::LockProbe writer_probe_;
  // Readers hold concurrently, so each context has its own reader probe
  // (each written only by its own context).
  std::unique_ptr<hprof::LockProbe[]> reader_probes_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_DRWLOCK_H_

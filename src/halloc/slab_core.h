// NUMA-aware slab allocator: per-cluster magazine caches over a shared depot,
// written once over the memory backend (src/hlock/algo/backend.h).
//
// The paper's locking story has an allocation corollary: PRs 6-7 homed *lock
// words* at the cluster that touches them, but every hot-path object (page
// descriptor, RPC packet, request node) still came from one shared free list,
// so each allocate/free pair bounced a global head word -- and the object
// itself -- across the ring.  This allocator reproduces the Bonwick
// slab/magazine/depot design (the structure the GNUMach slab layer and
// Solaris libumem reproduce) with the paper's homing rule applied at every
// layer:
//
//   object refs    partitioned into per-cluster ranges; an object's backing
//                  memory is homed at HomeClusterOf(ref)'s modules
//   magazine       a fixed-capacity stack of refs ("rounds"); the per-cluster
//                  cache holds two (loaded + previous), homed at the cluster
//   depot          global stacks of FULL and EMPTY magazines plus the
//                  uncarved slab cursors, behind one depot lock
//
//   Alloc fast path: pop a round off the loaded magazine -- cluster-local
//   words only, under the cluster's own cache lock.  When loaded and
//   previous are both empty the cache takes a depot trip: exchange an empty
//   magazine for a full one, or carve a fresh slab of refs from the cluster's
//   own range (stealing from another cluster's range when its own is dry --
//   the depot-steal).  The free path mirrors it: when both magazines fill,
//   hand the full previous to the depot and take an empty back.
//
// The loaded/previous exchange rule is the magazine layer's whole trick: a
// cache ping-ponging on an alloc/free boundary flips between the two
// magazines without ever visiting the depot, so depot-lock traffic scales
// with *drift* between a cluster's allocs and frees, not with throughput.
//
// Depot-lock contention is exactly the cross-cluster signal the paper says to
// profile: attach an hprof site with set_depot_site() and every depot trip
// records wait/hold/handoff with the acquirer's true cluster, so `hprof`
// reports allocator contention with NUMA handoff attribution like any other
// lock (the bench/alloc_scaling --profile path).
//
// Magazine-count invariant: with capacity C_total and magazine size M, the
// pool owns ceil(C_total/M) + 2*clusters magazines; each cluster permanently
// holds exactly two.  When a free-side depot trip needs an empty magazine the
// requesting cluster holds 2M rounds, so the depot can hold at most
// floor(C_total/M) - 2 full magazines, leaving >= 2 empties on the empty
// stack -- the free path can never fail.  The alloc path can: when every ref
// is live (or stranded in other clusters' part-full magazines) Alloc returns
// the nil ref 0, and the caller sees pool exhaustion exactly as it did with
// the shared free list.
//
// Memory orders (the table in DESIGN.md): cache and depot locks are plain
// CAS(0->1, acquire) / store(0, release) spin locks with the doubling poll
// backoff of drwlock; every word protected by a lock (magazine counts,
// rounds, stack tops, slab cursors, the cache's loaded/previous slots) is
// accessed relaxed inside the critical section.  The release unlock is what
// publishes a magazine's contents to the next cache that pops it from the
// depot -- which is precisely the edge the deliberate kBrokenDepotRelease
// knob severs so the model checker can watch a stale magazine cross clusters
// (tests/hcheck/halloc_hcheck_test.cc, mirroring the drwlock bug knobs).

#ifndef HALLOC_SLAB_CORE_H_
#define HALLOC_SLAB_CORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hlock/algo/backend.h"
#include "src/hprof/lock_site.h"

namespace halloc {

enum class AllocBroken : std::uint8_t {
  kNone,
  // Depot unlock demoted to relaxed: the next depot visitor can observe the
  // stack top without the magazine contents the previous holder wrote.
  kBrokenDepotRelease,
  // Magazine pop decrements the round count twice: leaks every other round
  // and wraps the count on an odd magazine, tripping the range check.
  kBrokenCountSkew,
};

struct SlabConfig {
  std::uint64_t objects_per_cluster = 256;
  std::uint32_t magazine_size = 8;
  // Module homing the depot words (stack tops, depot lock, slab cursors).
  std::uint32_t depot_home = 0;
  AllocBroken broken = AllocBroken::kNone;
  // Host-side double-alloc/double-free tracking (B::Check on violation).
  // Pure observer: adds no backend operations, so costed runs are
  // bit-identical either way.  Distinct refs touch distinct bytes, so
  // concurrent native use is race-free as long as the allocator is correct.
  bool debug_checks = true;
};

// Per-cluster cache outcomes, counted host-side under that cluster's cache
// lock (no backend traffic).
struct CacheStats {
  std::uint64_t alloc_fast = 0;    // popped from the loaded magazine
  std::uint64_t alloc_swap = 0;    // loaded/previous exchange sufficed
  std::uint64_t alloc_depot = 0;   // took the depot trip
  std::uint64_t alloc_fail = 0;    // pool exhausted: returned the nil ref
  std::uint64_t free_fast = 0;
  std::uint64_t free_swap = 0;
  std::uint64_t free_depot = 0;

  std::uint64_t allocs() const { return alloc_fast + alloc_swap + alloc_depot; }
  std::uint64_t frees() const { return free_fast + free_swap + free_depot; }

  CacheStats& operator+=(const CacheStats& o) {
    alloc_fast += o.alloc_fast;
    alloc_swap += o.alloc_swap;
    alloc_depot += o.alloc_depot;
    alloc_fail += o.alloc_fail;
    free_fast += o.free_fast;
    free_swap += o.free_swap;
    free_depot += o.free_depot;
    return *this;
  }
};

// Depot outcomes, counted host-side under the depot lock.
struct DepotStats {
  std::uint64_t full_pops = 0;
  std::uint64_t full_pushes = 0;
  std::uint64_t empty_pops = 0;
  std::uint64_t empty_pushes = 0;
  std::uint64_t carves = 0;   // slabs carved from the requester's own range
  std::uint64_t steals = 0;   // slabs carved from another cluster's range
};

template <class B>
class SlabAllocatorCore {
 public:
  using Ctx = typename B::Ctx;
  using Word = typename B::Word;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;

  // The nil ref: Alloc's "pool exhausted" result.  Valid refs are
  // 1..capacity().
  static constexpr std::uint64_t kNil = 0;

  // Doubling-delay poll pacing for the lock spins, same constants and
  // rationale as drwlock: fixed-interval polling of a remote lock word
  // saturates the very module the release store must land on.
  static constexpr std::uint64_t kPollBase = 16;
  static constexpr std::uint64_t kPollCap = 512;

  SlabAllocatorCore(B* b, const SlabConfig& cfg)
      : b_(b),
        broken_(cfg.broken),
        num_clusters_(b->NumClusters()),
        objects_per_cluster_(cfg.objects_per_cluster),
        capacity_(cfg.objects_per_cluster * b->NumClusters()),
        magazine_size_(cfg.magazine_size == 0 ? 1 : cfg.magazine_size),
        caches_(new Cache[num_clusters_]),
        slab_next_(new Word[num_clusters_]),
        cache_stats_(num_clusters_) {
    B::Check(objects_per_cluster_ >= 1, "halloc: empty per-cluster range");
    const std::uint64_t slab_mags =
        (capacity_ + magazine_size_ - 1) / magazine_size_;
    const std::uint64_t num_mags = slab_mags + 2ull * num_clusters_;
    mags_.reset(new Mag[num_mags]);
    b_->InitWord(depot_lock_, cfg.depot_home, 0);
    b_->InitWord(full_top_, cfg.depot_home, kNil);
    b_->InitWord(empty_top_, cfg.depot_home, kNil);
    const std::uint64_t primed_init =
        objects_per_cluster_ < magazine_size_ ? objects_per_cluster_ : magazine_size_;
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      // Slab cursor: next uncarved ref in cluster c's range, skipping the
      // slab primed into the cluster's loaded magazine below.  Touched only
      // under the depot lock, so homed with the other depot words.
      b_->InitWord(slab_next_[c], cfg.depot_home,
                   c * objects_per_cluster_ + 1 + primed_init);
    }
    // Magazines 2c / 2c+1 are cluster c's initial loaded/previous pair,
    // homed at that cluster; the rest start on the depot empty stack, homed
    // round-robin so circulating magazines keep the machine's modules evenly
    // loaded.  Each cluster's loaded magazine is primed with the first slab
    // of its range at construction (free host-side init), so first-touch
    // allocation is the fast path, not a depot trip; the rest of the range
    // is carved lazily on depot misses.
    const std::uint64_t primed =
        objects_per_cluster_ < magazine_size_ ? objects_per_cluster_ : magazine_size_;
    std::uint64_t empty_chain = kNil;
    for (std::uint64_t i = 0; i < num_mags; ++i) {
      const std::uint32_t home_cluster =
          i < 2ull * num_clusters_ ? static_cast<std::uint32_t>(i / 2)
                                   : static_cast<std::uint32_t>(
                                         (i - 2ull * num_clusters_) % num_clusters_);
      const std::uint32_t home = ClusterHome(home_cluster);
      Mag& m = mags_[i];
      m.rounds.reset(new Word[magazine_size_]);
      const bool is_loaded_mag = i < 2ull * num_clusters_ && i % 2 == 0;
      b_->InitWord(m.count, home, is_loaded_mag ? primed : 0);
      for (std::uint32_t j = 0; j < magazine_size_; ++j) {
        const std::uint64_t round =
            is_loaded_mag && j < primed ? home_cluster * objects_per_cluster_ + 1 + j
                                        : kNil;
        b_->InitWord(m.rounds[j], home, round);
      }
      if (i < 2ull * num_clusters_) {
        b_->InitWord(m.next, home, kNil);
      } else {
        b_->InitWord(m.next, home, empty_chain);
        empty_chain = i + 1;  // stack values are magazine index + 1
      }
    }
    b_->InitWord(empty_top_, cfg.depot_home, empty_chain);
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      const std::uint32_t home = ClusterHome(c);
      Cache& cache = caches_[c];
      b_->InitWord(cache.lock, home, 0);
      b_->InitWord(cache.loaded, home, 2ull * c + 1);
      b_->InitWord(cache.prev, home, 2ull * c + 2);
    }
    if (cfg.debug_checks) {
      debug_allocated_.reset(new std::uint8_t[capacity_ + 1]());
    }
  }
  SlabAllocatorCore(const SlabAllocatorCore&) = delete;
  SlabAllocatorCore& operator=(const SlabAllocatorCore&) = delete;

  // --- allocation ----------------------------------------------------------

  // Returns a ref in 1..capacity(), or kNil when the pool is exhausted.  The
  // ref's backing object should live in HomeClusterOf(ref)'s memory.
  TaskT<std::uint64_t> Alloc(Ctx& ctx) {
    const std::uint32_t cluster = b_->ClusterOfCtx(b_->CtxId(ctx));
    Cache& cache = caches_[cluster];
    co_await LockCache(ctx, cache.lock);
    std::uint64_t loaded =
        co_await b_->Load(ctx, cache.loaded, std::memory_order_relaxed);
    std::uint64_t cnt =
        co_await b_->Load(ctx, mags_[loaded - 1].count, std::memory_order_relaxed);
    co_await b_->Exec(ctx, 0, 1);
    if (cnt == 0) {
      const std::uint64_t prev =
          co_await b_->Load(ctx, cache.prev, std::memory_order_relaxed);
      const std::uint64_t pcnt =
          co_await b_->Load(ctx, mags_[prev - 1].count, std::memory_order_relaxed);
      co_await b_->Exec(ctx, 0, 1);
      if (pcnt != 0) {
        // Loaded/previous exchange: the cache is ping-ponging across an
        // alloc/free boundary; no depot traffic.
        co_await b_->Store(ctx, cache.loaded, prev, std::memory_order_relaxed);
        co_await b_->Store(ctx, cache.prev, loaded, std::memory_order_relaxed);
        loaded = prev;
        cnt = pcnt;
        ++cache_stats_[cluster].alloc_swap;
      } else {
        // Both magazines empty: depot trip.  Exchange the (empty) loaded
        // magazine for a full one, or carve a fresh slab into it.
        co_await LockDepot(ctx);
        const std::uint64_t full = co_await PopStack(ctx, full_top_);
        if (full != kNil) {
          ++depot_stats_.full_pops;
          ++depot_stats_.empty_pushes;
          co_await PushStack(ctx, empty_top_, loaded);
          co_await b_->Store(ctx, cache.loaded, full, std::memory_order_relaxed);
          loaded = full;
        } else {
          co_await Carve(ctx, cluster, mags_[loaded - 1]);
        }
        co_await UnlockDepot(ctx);
        cnt = co_await b_->Load(ctx, mags_[loaded - 1].count,
                                std::memory_order_relaxed);
        co_await b_->Exec(ctx, 0, 1);
        if (cnt == 0) {
          // Every ref is live or stranded in other clusters' part-full
          // magazines: genuine exhaustion, the shared-free-list analogue of
          // an empty list.
          ++cache_stats_[cluster].alloc_fail;
          co_await UnlockCache(ctx, cache.lock);
          co_return kNil;
        }
        ++cache_stats_[cluster].alloc_depot;
      }
    } else {
      ++cache_stats_[cluster].alloc_fast;
    }
    const std::uint64_t ref = co_await PopRound(ctx, mags_[loaded - 1], cnt);
    co_await UnlockCache(ctx, cache.lock);
    if (debug_allocated_ != nullptr) {
      B::Check(debug_allocated_[ref] == 0, "halloc: ref allocated twice");
      debug_allocated_[ref] = 1;
    }
    co_return ref;
  }

  TaskT<void> Free(Ctx& ctx, std::uint64_t ref) {
    B::Check(ref >= 1 && ref <= capacity_, "halloc: free of out-of-range ref");
    if (debug_allocated_ != nullptr) {
      B::Check(debug_allocated_[ref] == 1, "halloc: double free");
      debug_allocated_[ref] = 0;
    }
    const std::uint32_t cluster = b_->ClusterOfCtx(b_->CtxId(ctx));
    Cache& cache = caches_[cluster];
    co_await LockCache(ctx, cache.lock);
    std::uint64_t loaded =
        co_await b_->Load(ctx, cache.loaded, std::memory_order_relaxed);
    std::uint64_t cnt =
        co_await b_->Load(ctx, mags_[loaded - 1].count, std::memory_order_relaxed);
    co_await b_->Exec(ctx, 0, 1);
    if (cnt >= magazine_size_) {
      const std::uint64_t prev =
          co_await b_->Load(ctx, cache.prev, std::memory_order_relaxed);
      const std::uint64_t pcnt =
          co_await b_->Load(ctx, mags_[prev - 1].count, std::memory_order_relaxed);
      co_await b_->Exec(ctx, 0, 1);
      if (pcnt < magazine_size_) {
        co_await b_->Store(ctx, cache.loaded, prev, std::memory_order_relaxed);
        co_await b_->Store(ctx, cache.prev, loaded, std::memory_order_relaxed);
        loaded = prev;
        cnt = pcnt;
        ++cache_stats_[cluster].free_swap;
      } else {
        // Both magazines full: hand the full previous to the depot and take
        // an empty back (always available -- see the invariant in the file
        // comment); the old loaded becomes the new previous.
        co_await LockDepot(ctx);
        ++depot_stats_.full_pushes;
        co_await PushStack(ctx, full_top_, prev);
        const std::uint64_t empty = co_await PopStack(ctx, empty_top_);
        B::Check(empty != kNil, "halloc: depot out of empty magazines");
        ++depot_stats_.empty_pops;
        co_await UnlockDepot(ctx);
        co_await b_->Store(ctx, cache.prev, loaded, std::memory_order_relaxed);
        co_await b_->Store(ctx, cache.loaded, empty, std::memory_order_relaxed);
        loaded = empty;
        cnt = 0;
        ++cache_stats_[cluster].free_depot;
      }
    } else {
      ++cache_stats_[cluster].free_fast;
    }
    co_await PushRound(ctx, mags_[loaded - 1], cnt, ref);
    co_await UnlockCache(ctx, cache.lock);
  }

  // --- introspection / profiling -------------------------------------------

  std::uint64_t capacity() const { return capacity_; }
  std::uint32_t magazine_size() const { return magazine_size_; }
  std::uint32_t num_clusters() const { return num_clusters_; }
  std::uint64_t objects_per_cluster() const { return objects_per_cluster_; }

  // The cluster whose range a ref was carved from: its backing object should
  // be homed in this cluster's memory.
  std::uint32_t HomeClusterOf(std::uint64_t ref) const {
    return static_cast<std::uint32_t>((ref - 1) / objects_per_cluster_);
  }

  const CacheStats& cache_stats(std::uint32_t cluster) const {
    return cache_stats_[cluster];
  }
  CacheStats TotalCacheStats() const {
    CacheStats total;
    for (const CacheStats& s : cache_stats_) {
      total += s;
    }
    return total;
  }
  const DepotStats& depot_stats() const { return depot_stats_; }

  // Attaches the depot lock to hprof (null detaches).  Recording is
  // host-side only: a profiled run is operation-identical to an unprofiled
  // one.  Not thread-safe against concurrent allocator users.
  void set_depot_site(hprof::LockSiteStats* site) { depot_probe_.set_site(site); }
  hprof::LockSiteStats* depot_site() const { return depot_probe_.site(); }

 private:
  // A magazine: a bounded stack of object refs.  `next` chains it into a
  // depot stack (values are magazine index + 1; kNil terminates).
  struct Mag {
    Word next;
    Word count;
    std::unique_ptr<Word[]> rounds;
  };

  // Per-cluster cache state, one cache line per cluster: the fast path must
  // never invalidate another cluster's line.
  struct alignas(64) Cache {
    Word lock;    // CAS(0->1, acquire) / store(0, release)
    Word loaded;  // magazine index + 1; never kNil after construction
    Word prev;
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

  TaskT<void> LockCache(Ctx& ctx, Word& lock) {
    std::uint64_t delay = kPollBase;
    while (true) {
      const bool won = co_await b_->CompareSwap(ctx, lock, 0, 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      if (won) {
        co_return;
      }
      co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
      delay = delay < kPollCap ? delay * 2 : kPollCap;
    }
  }

  TaskT<void> UnlockCache(Ctx& ctx, Word& lock) {
    co_await b_->Store(ctx, lock, 0, std::memory_order_release);
    co_await b_->Exec(ctx, 0, 1);
  }

  TaskT<void> LockDepot(Ctx& ctx) {
    hprof::LockProbe::Wait wait = depot_probe_.Begin(hlock::algo::Caller<B>{b_, ctx});
    std::uint64_t delay = kPollBase;
    while (true) {
      const bool won = co_await b_->CompareSwap(ctx, depot_lock_, 0, 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed);
      co_await b_->Exec(ctx, 1, 1);
      if (won) {
        break;
      }
      depot_probe_.Queue(wait, hlock::algo::Caller<B>{b_, ctx});
      co_await b_->BackoffUnits(ctx, delay, delay >= kPollCap);
      delay = delay < kPollCap ? delay * 2 : kPollCap;
    }
    depot_probe_.Grant(wait, hlock::algo::Caller<B>{b_, ctx});
  }

  TaskT<void> UnlockDepot(Ctx& ctx) {
    depot_probe_.Release(hlock::algo::Caller<B>{b_, ctx});
    std::memory_order mo = std::memory_order_release;
    if (broken_ == AllocBroken::kBrokenDepotRelease) {
      // BUG (deliberate, for hcheck): without the release, the stack-top
      // store can become visible before the magazine's rounds/count stores;
      // the next depot visitor pops a magazine whose contents it reads stale.
      mo = std::memory_order_relaxed;
    }
    co_await b_->Store(ctx, depot_lock_, 0, mo);
    co_await b_->Exec(ctx, 0, 1);
  }

  // Depot magazine stacks.  Callers hold the depot lock, so all accesses are
  // relaxed; the depot unlock's release publishes them.
  TaskT<std::uint64_t> PopStack(Ctx& ctx, Word& top) {
    const std::uint64_t head =
        co_await b_->Load(ctx, top, std::memory_order_relaxed);
    co_await b_->Exec(ctx, 0, 1);
    if (head == kNil) {
      co_return kNil;
    }
    const std::uint64_t next =
        co_await b_->Load(ctx, mags_[head - 1].next, std::memory_order_relaxed);
    co_await b_->Store(ctx, top, next, std::memory_order_relaxed);
    co_return head;
  }

  TaskT<void> PushStack(Ctx& ctx, Word& top, std::uint64_t mag) {
    const std::uint64_t head =
        co_await b_->Load(ctx, top, std::memory_order_relaxed);
    co_await b_->Store(ctx, mags_[mag - 1].next, head, std::memory_order_relaxed);
    co_await b_->Store(ctx, top, mag, std::memory_order_relaxed);
  }

  // Carves up to one magazine's worth of never-allocated refs into `into`.
  // Prefers the requester's own range; when dry, scans the other clusters'
  // ranges (the depot-steal -- those refs stay homed at the donor cluster).
  // Caller holds the depot lock.  Leaves `into.count` 0 when every range is
  // exhausted.
  TaskT<void> Carve(Ctx& ctx, std::uint32_t cluster, Mag& into) {
    for (std::uint32_t i = 0; i < num_clusters_; ++i) {
      const std::uint32_t donor = (cluster + i) % num_clusters_;
      const std::uint64_t next =
          co_await b_->Load(ctx, slab_next_[donor], std::memory_order_relaxed);
      const std::uint64_t limit = (donor + 1ull) * objects_per_cluster_ + 1;
      co_await b_->Exec(ctx, 1, 1);
      if (next >= limit) {
        continue;
      }
      std::uint64_t n = limit - next;
      if (n > magazine_size_) {
        n = magazine_size_;
      }
      for (std::uint64_t j = 0; j < n; ++j) {
        co_await b_->Store(ctx, into.rounds[j], next + j,
                           std::memory_order_relaxed);
        co_await b_->Exec(ctx, 1, 1);
      }
      co_await b_->Store(ctx, slab_next_[donor], next + n,
                         std::memory_order_relaxed);
      co_await b_->Store(ctx, into.count, n, std::memory_order_relaxed);
      if (donor == cluster) {
        ++depot_stats_.carves;
      } else {
        ++depot_stats_.steals;
      }
      co_return;
    }
  }

  // Pops the top round.  `cnt` is the count the caller just read (saves the
  // reload on the fast path).  Caller holds the cache lock.
  TaskT<std::uint64_t> PopRound(Ctx& ctx, Mag& mag, std::uint64_t cnt) {
    B::Check(cnt >= 1 && cnt <= magazine_size_,
             "halloc: magazine count out of range");
    const std::uint64_t ref =
        co_await b_->Load(ctx, mag.rounds[cnt - 1], std::memory_order_relaxed);
    co_await b_->Exec(ctx, 1, 0);
    std::uint64_t dec = 1;
    if (broken_ == AllocBroken::kBrokenCountSkew) {
      // BUG (deliberate, for hcheck): double decrement -- leaks a round per
      // pop and wraps the count once it hits 1, so the range check above
      // fires on the next pop from this magazine.
      dec = 2;
    }
    co_await b_->Store(ctx, mag.count, cnt - dec, std::memory_order_relaxed);
    B::Check(ref != kNil, "halloc: nil round in magazine");
    co_return ref;
  }

  TaskT<void> PushRound(Ctx& ctx, Mag& mag, std::uint64_t cnt, std::uint64_t ref) {
    B::Check(cnt < magazine_size_, "halloc: push into a full magazine");
    co_await b_->Store(ctx, mag.rounds[cnt], ref, std::memory_order_relaxed);
    co_await b_->Exec(ctx, 1, 0);
    co_await b_->Store(ctx, mag.count, cnt + 1, std::memory_order_relaxed);
  }

  B* b_;
  AllocBroken broken_;
  std::uint32_t num_clusters_;
  std::uint64_t objects_per_cluster_;
  std::uint64_t capacity_;
  std::uint32_t magazine_size_;
  Word depot_lock_;
  Word full_top_;   // stack of full magazines (exactly magazine_size_ rounds)
  Word empty_top_;  // stack of empty magazines
  std::unique_ptr<Mag[]> mags_;  // Words are non-movable on native backends
  std::unique_ptr<Cache[]> caches_;
  std::unique_ptr<Word[]> slab_next_;  // per-cluster uncarved-range cursors
  std::vector<CacheStats> cache_stats_;
  DepotStats depot_stats_;
  hprof::LockProbe depot_probe_;
  std::unique_ptr<std::uint8_t[]> debug_allocated_;
};

}  // namespace halloc

#endif  // HALLOC_SLAB_CORE_H_

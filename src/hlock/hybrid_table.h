// The hybrid coarse-grain / fine-grain locked hash table of Figure 1b, with a
// distributed read path.
//
// One coarse-grained lock (a Distributed Lock by default) protects chain
// *mutation* and exclusive reservations, but is held only long enough to
// search a chain and flip a reserve word on the target entry.  The reserve
// word is the fine-grained lock: it may be held across long operations and is
// cleared by its exclusive holder with a single release store.  Waiters drop
// the coarse lock, spin on the reserve word with exponential backoff (the
// doubling delay persists across retries of one logical acquire -- see
// ReserveCore::Backoff), then re-acquire the coarse lock and search again.
//
// The reserve word doubles as a reader-writer lock (Section 2.3): value 0 is
// free, kExclusive is exclusively reserved, anything else counts readers.
// Reserve transitions here use the atomic (CAS) family of ReserveCore ops:
// the read path below lets readers enter and leave without the coarse lock,
// so every transition that can race one must be a real read-modify-write.
// (The plain-store family remains exactly as the paper wrote it for the
// simulated kernel, which keeps Figure 4's instruction counts.)
//
// The read path (ReadPath::kDistributed, the default) replaces "take the
// coarse lock to walk a chain" with a table-level distributed RW lock
// (algo::DrwLockCore): a reader bumps its own cluster's padded counter and
// checks the writer flag -- two operations on mostly-local memory -- walks
// the chain, and leaves with a local decrement.  Chain *mutators* (insert,
// erase) keep the coarse lock for writer/writer ordering and additionally
// raise the drw writer flag and sweep the cluster counters to exclude
// readers (WriterArrive/WriterDepart: the coarse lock doubles as the drw
// writer mutex).  Reserving an *existing* entry -- the common exclusive
// acquire -- mutates no chain and therefore never sweeps.
// ReadPath::kCoarse preserves the pre-distributed behaviour (every reader
// funnels through the coarse lock); the read-heavy benches race the two.
//
// Entries live in a type-stable pool (they are only ever reused as entries of
// this table), so a waiter spinning on a freed entry's reserve word reads a
// well-defined value -- the paper's footnote-2 requirement.
//
// TryAcquire* methods are the "no-spin" variants used by code running in
// interrupt/RPC-handler context, which must fail rather than wait
// (Section 2.3's optimistic deadlock-avoidance protocol).  On the
// distributed path TryAcquireShared uses the drw *try* entry, so a sweeping
// writer fails the handler instead of blocking it.

#ifndef HLOCK_HYBRID_TABLE_H_
#define HLOCK_HYBRID_TABLE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/native_backend.h"
#include "src/hlock/algo/reserve.h"
#include "src/hlock/backoff.h"
#include "src/hlock/mcs_locks.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// How readers reach a chain: through the coarse lock (the paper's Figure 1b
// as previously implemented) or through the table-level distributed RW lock.
enum class ReadPath : std::uint8_t {
  kCoarse,
  kDistributed,
};

// `Platform` supplies the atomics, backoff, and invariant checks (see
// platform.h); model-checked instantiations pass hcheck::Platform together
// with an hcheck-flavoured CoarseLock.
template <typename K, typename V, typename CoarseLock = McsH2Lock, typename Hash = std::hash<K>,
          typename Platform = StdPlatform>
class HybridTable {
  using Backend = algo::NativeBackend<Platform>;
  using Reserve = algo::ReserveCore<Backend>;
  using Drw = algo::DrwLockCore<Backend>;

 public:
  // Reserve-word encoding (see algo::ReserveCore): 0 = free, kExclusive =
  // exclusively reserved, any other value = that many readers.
  static constexpr std::uint64_t kExclusive = Reserve::kExclusive;

  // Cap (in backoff units) for the reserve-word spin loops.
  static constexpr std::uint64_t kMaxBackoff = 1024;

  // `procs_per_cluster` maps dense thread ids onto clusters for the
  // distributed read path's per-cluster counters and for hprof attribution
  // (1 = every thread its own cluster, the conservative default).
  explicit HybridTable(std::size_t num_buckets = 128, std::uint32_t procs_per_cluster = 1,
                       ReadPath read_path = ReadPath::kDistributed)
      : backend_(procs_per_cluster),
        chain_drw_(&backend_),
        read_path_(read_path),
        buckets_(num_buckets, nullptr) {}
  HybridTable(const HybridTable&) = delete;
  HybridTable& operator=(const HybridTable&) = delete;

  // Exclusive ownership of one entry.  Movable; releases on destruction.
  // Each guard carries its own probe: many entries are reserved
  // concurrently, so hold timing cannot live in the table's.
  class ExclusiveGuard {
   public:
    ExclusiveGuard() = default;
    ExclusiveGuard(ExclusiveGuard&& other) noexcept
        : table_(std::exchange(other.table_, nullptr)),
          entry_(std::exchange(other.entry_, nullptr)),
          probe_(other.probe_) {}
    ExclusiveGuard& operator=(ExclusiveGuard&& other) noexcept {
      Release();
      table_ = std::exchange(other.table_, nullptr);
      entry_ = std::exchange(other.entry_, nullptr);
      probe_ = other.probe_;
      return *this;
    }
    ~ExclusiveGuard() { Release(); }

    explicit operator bool() const { return entry_ != nullptr; }
    const K& key() const { return entry_->key; }
    V& value() { return entry_->value; }
    const V& value() const { return entry_->value; }

    // Releases the reservation early.
    void Release() {
      if (entry_ != nullptr) {
        typename Backend::Ctx ctx{Platform::ThreadId()};
        probe_.Release(algo::Caller<Backend>{&table_->backend_, ctx});
        // Exclusive clear needs no lock and no read-modify-write.
        Reserve::ClearExclusive(table_->backend_, ctx, entry_->reserve).Get();
        entry_ = nullptr;
        table_ = nullptr;
      }
    }

   private:
    friend class HybridTable;
    ExclusiveGuard(HybridTable* table, typename HybridTable::Entry* entry)
        : table_(table), entry_(entry) {}
    HybridTable* table_ = nullptr;
    typename HybridTable::Entry* entry_ = nullptr;
    hprof::LockProbe probe_;
  };

  // Shared (reader) hold of one entry.
  class SharedGuard {
   public:
    SharedGuard() = default;
    SharedGuard(SharedGuard&& other) noexcept
        : table_(std::exchange(other.table_, nullptr)),
          entry_(std::exchange(other.entry_, nullptr)) {}
    SharedGuard& operator=(SharedGuard&& other) noexcept {
      Release();
      table_ = std::exchange(other.table_, nullptr);
      entry_ = std::exchange(other.entry_, nullptr);
      return *this;
    }
    ~SharedGuard() { Release(); }

    explicit operator bool() const { return entry_ != nullptr; }
    const K& key() const { return entry_->key; }
    const V& value() const { return entry_->value; }

    void Release() {
      if (entry_ != nullptr) {
        // Lock-free reader exit: a CAS decrement on the reserve word.  (The
        // pre-fix code re-acquired the coarse chain lock here just to run a
        // plain decrement, serializing read-mostly traffic on *release*.)
        typename Backend::Ctx ctx{Platform::ThreadId()};
        if (table_->racy_reader_exit_) {
          // BUG (deliberate, test-only): the pre-fix plain load+store
          // decrement *without* the coarse lock that used to make it safe --
          // two concurrent exits lose an update.  The hcheck regression test
          // must tell this variant from the CAS one above.
          Reserve::RemoveReader(table_->backend_, ctx, entry_->reserve).Get();
        } else {
          Reserve::RemoveReaderAtomic(table_->backend_, ctx, entry_->reserve).Get();
        }
        entry_ = nullptr;
        table_ = nullptr;
      }
    }

   private:
    friend class HybridTable;
    SharedGuard(HybridTable* table, typename HybridTable::Entry* entry)
        : table_(table), entry_(entry) {}
    HybridTable* table_ = nullptr;
    typename HybridTable::Entry* entry_ = nullptr;
  };

  // Exclusively reserves the entry for `key`, creating it (default V) if
  // absent.  Spins (coarse lock dropped) while the entry is reserved.
  ExclusiveGuard Acquire(const K& key) {
    typename Backend::Ctx ctx{Platform::ThreadId()};
    const algo::Caller<Backend> caller{&backend_, ctx};
    hprof::LockProbe::Wait wait = reserve_probe_.Begin(caller);
    typename Reserve::Backoff bo;  // one logical acquire, one doubling delay
    while (true) {
      Entry* wait_target = nullptr;
      {
        std::lock_guard<CoarseLock> guard(lock_);
        Entry* entry = FindLocked(key);
        if (entry == nullptr) {
          entry = InsertGuarded(ctx, key);
        }
        if (Reserve::TrySetExclusiveAtomic(backend_, ctx, entry->reserve).Get()) {
          return GrantExclusive(entry, caller, &wait);
        }
        wait_target = entry;
      }
      // Reserved by someone else: spin outside the coarse lock, then retry
      // the search (the entry may have been erased and recycled meanwhile;
      // type-stable memory keeps the spin safe).
      reserve_probe_.Queue(wait, caller);
      Reserve::SpinUntilFree(backend_, ctx, wait_target->reserve, kMaxBackoff, bo).Get();
    }
  }

  // No-spin exclusive reserve for handler context: returns an empty guard if
  // the entry is currently reserved.  Creates the entry if absent.
  ExclusiveGuard TryAcquire(const K& key) {
    std::lock_guard<CoarseLock> guard(lock_);
    typename Backend::Ctx ctx{Platform::ThreadId()};
    Entry* entry = FindLocked(key);
    if (entry == nullptr) {
      entry = InsertGuarded(ctx, key);
    }
    if (!Reserve::TrySetExclusiveAtomic(backend_, ctx, entry->reserve).Get()) {
      return ExclusiveGuard();
    }
    return GrantExclusive(entry, algo::Caller<Backend>{&backend_, ctx}, /*wait=*/nullptr);
  }

  // Shared (reader) reserve; spins while exclusively reserved.
  SharedGuard AcquireShared(const K& key) {
    typename Backend::Ctx ctx{Platform::ThreadId()};
    typename Reserve::Backoff bo;
    while (true) {
      Entry* wait_target = nullptr;
      if (read_path_ == ReadPath::kDistributed) {
        chain_drw_.AcquireShared(ctx).Get();
        Entry* entry = FindLocked(key);
        if (entry != nullptr &&
            Reserve::TryAddReaderAtomic(backend_, ctx, entry->reserve).Get()) {
          chain_drw_.ReleaseShared(ctx).Get();
          return SharedGuard(this, entry);
        }
        wait_target = entry;
        chain_drw_.ReleaseShared(ctx).Get();
        if (wait_target == nullptr) {
          // Absent: create it under the write path, then race for it again.
          std::lock_guard<CoarseLock> guard(lock_);
          if (FindLocked(key) == nullptr) {
            InsertGuarded(ctx, key);
          }
          continue;
        }
      } else {
        std::lock_guard<CoarseLock> guard(lock_);
        Entry* entry = FindLocked(key);
        if (entry == nullptr) {
          entry = InsertGuarded(ctx, key);
        }
        if (Reserve::TryAddReaderAtomic(backend_, ctx, entry->reserve).Get()) {
          return SharedGuard(this, entry);
        }
        wait_target = entry;
      }
      Reserve::SpinWhileExclusive(backend_, ctx, wait_target->reserve, kMaxBackoff, bo).Get();
    }
  }

  // No-spin reader reserve: empty guard if exclusively reserved or absent.
  // Distributed path: also fails (rather than waits) while a chain writer is
  // sweeping -- handler semantics all the way down.
  SharedGuard TryAcquireShared(const K& key) {
    typename Backend::Ctx ctx{Platform::ThreadId()};
    if (read_path_ == ReadPath::kDistributed) {
      if (!chain_drw_.TryAcquireShared(ctx).Get()) {
        return SharedGuard();
      }
      Entry* entry = FindLocked(key);
      SharedGuard out;
      if (entry != nullptr &&
          Reserve::TryAddReaderAtomic(backend_, ctx, entry->reserve).Get()) {
        out = SharedGuard(this, entry);
      }
      chain_drw_.ReleaseShared(ctx).Get();
      return out;
    }
    std::lock_guard<CoarseLock> guard(lock_);
    Entry* entry = FindLocked(key);
    if (entry == nullptr) {
      return SharedGuard();
    }
    if (!Reserve::TryAddReaderAtomic(backend_, ctx, entry->reserve).Get()) {
      return SharedGuard();
    }
    return SharedGuard(this, entry);
  }

  // Looks up `key` and copies its value without reserving.  On the
  // distributed path this is the reader fast path: a cluster-local counter
  // bump, a flag check, the chain walk, a local decrement -- no shared lock
  // word is written.  (As before, the unreserved copy can observe a
  // concurrent exclusive holder's in-place update of V; callers that need a
  // stable read take AcquireShared.)
  std::optional<V> Peek(const K& key) {
    typename Backend::Ctx ctx{Platform::ThreadId()};
    if (read_path_ == ReadPath::kDistributed) {
      chain_drw_.AcquireShared(ctx).Get();
      Entry* entry = FindLocked(key);
      std::optional<V> out;
      if (entry != nullptr) {
        out = entry->value;
      }
      chain_drw_.ReleaseShared(ctx).Get();
      return out;
    }
    std::lock_guard<CoarseLock> guard(lock_);
    Entry* entry = FindLocked(key);
    if (entry == nullptr) {
      return std::nullopt;
    }
    return entry->value;
  }

  bool Contains(const K& key) {
    typename Backend::Ctx ctx{Platform::ThreadId()};
    if (read_path_ == ReadPath::kDistributed) {
      chain_drw_.AcquireShared(ctx).Get();
      const bool found = FindLocked(key) != nullptr;
      chain_drw_.ReleaseShared(ctx).Get();
      return found;
    }
    std::lock_guard<CoarseLock> guard(lock_);
    return FindLocked(key) != nullptr;
  }

  // Erases `key` if present and unreserved.  Returns false when absent or
  // reserved (handler semantics: the caller backs off and retries).
  bool Erase(const K& key) {
    std::lock_guard<CoarseLock> guard(lock_);
    typename Backend::Ctx ctx{Platform::ThreadId()};
    const std::size_t bucket = Hash{}(key) % buckets_.size();
    Entry** link = &buckets_[bucket];
    while (*link != nullptr) {
      Entry* entry = *link;
      if (entry->key == key) {
        // Sweep readers out *before* the reserve check: a chain reader still
        // walking could otherwise add a reader hold between our check and
        // the unlink, leaving it holding a recycled entry.
        if (read_path_ == ReadPath::kDistributed) {
          chain_drw_.WriterArrive(ctx).Get();
        }
        // Acquire: the recycled entry will be rewritten, which must not race
        // with the last holder's writes.
        const bool reserved =
            Reserve::Read(backend_, ctx, entry->reserve).Get() != Reserve::kFree;
        if (!reserved) {
          *link = entry->next;
          entry->next = free_list_;
          free_list_ = entry;
          --size_;
        }
        if (read_path_ == ReadPath::kDistributed) {
          chain_drw_.WriterDepart(ctx).Get();
        }
        return !reserved;
      }
      link = &entry->next;
    }
    return false;
  }

  std::size_t size() {
    std::lock_guard<CoarseLock> guard(lock_);
    return size_;
  }

  CoarseLock& coarse_lock() { return lock_; }
  ReadPath read_path() const { return read_path_; }

  // Attaches one profiling site covering every *exclusive* reservation in the
  // table (the fine-grained side of the hybrid scheme; wait/hold samples are
  // host nanoseconds).  Shared (reader) reserve holds are not recorded --
  // they are plain counter bumps with no meaningful wait or exclusivity.
  // The coarse lock can be profiled separately via coarse_lock().set_site().
  void set_reserve_site(hprof::LockSiteStats* site) { reserve_probe_.set_site(site); }

  // Attaches reader/writer sites to the table-level distributed RW lock
  // (reader holds = chain walks; writer holds = chain-mutation sweeps), with
  // per-cluster enqueue attribution.  Null detaches.
  void set_chain_sites(hprof::LockSiteStats* reader_site, hprof::LockSiteStats* writer_site) {
    chain_drw_.set_reader_site(reader_site);
    chain_drw_.set_site(writer_site);
  }

  // Test-only: reverts the reader exit to a plain (non-CAS) decrement while
  // keeping it outside the coarse lock -- the lost-update bug the hcheck
  // regression suite must catch.  Never call outside tests.
  void set_racy_reader_exit_for_test(bool racy) { racy_reader_exit_ = racy; }

 private:
  struct Entry {
    K key{};
    V value{};
    typename Backend::Word reserve;  // zero-initialized = free
    Entry* next = nullptr;
  };

  // Builds a granted guard with its own copy of the reserve probe, which
  // records the acquisition when profiled.  A null `wait` is TryAcquire's
  // instant grab.
  ExclusiveGuard GrantExclusive(Entry* entry, const algo::Caller<Backend>& caller,
                                const hprof::LockProbe::Wait* wait) {
    ExclusiveGuard guard(this, entry);
    guard.probe_ = reserve_probe_;
    if (wait != nullptr) {
      guard.probe_.Grant(*wait, caller);
    } else {
      guard.probe_.Grab(caller);
    }
    return guard;
  }

  Entry* FindLocked(const K& key) {
    const std::size_t bucket = Hash{}(key) % buckets_.size();
    for (Entry* entry = buckets_[bucket]; entry != nullptr; entry = entry->next) {
      if (entry->key == key) {
        return entry;
      }
    }
    return nullptr;
  }

  // Inserts under the coarse lock (which the caller holds); on the
  // distributed path the insertion is additionally fenced by the drw writer
  // flag+sweep so no reader walks the chain mid-splice.  The coarse lock
  // *is* the drw writer mutex -- WriterArrive/WriterDepart rely on it.
  Entry* InsertGuarded(typename Backend::Ctx& ctx, const K& key) {
    if (read_path_ != ReadPath::kDistributed) {
      return InsertLocked(key);
    }
    chain_drw_.WriterArrive(ctx).Get();
    Entry* entry = InsertLocked(key);
    chain_drw_.WriterDepart(ctx).Get();
    return entry;
  }

  Entry* InsertLocked(const K& key) {
    Entry* entry;
    if (free_list_ != nullptr) {
      entry = free_list_;
      free_list_ = entry->next;
      entry->value = V{};
    } else {
      pool_.emplace_back();
      entry = &pool_.back();
    }
    entry->key = key;
    const std::size_t bucket = Hash{}(key) % buckets_.size();
    entry->next = buckets_[bucket];
    buckets_[bucket] = entry;
    ++size_;
    return entry;
  }

  CoarseLock lock_;
  Backend backend_;
  Drw chain_drw_;  // table-level distributed RW lock over the chains
  ReadPath read_path_;
  bool racy_reader_exit_ = false;  // test-only bug knob (see setter)
  hprof::LockProbe reserve_probe_;  // copied into each granted guard
  std::vector<Entry*> buckets_;
  std::deque<Entry> pool_;  // type-stable entry storage
  Entry* free_list_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace hlock

#endif  // HLOCK_HYBRID_TABLE_H_

// Native NUMA-aware locks: CNA, HMCS-T, Fissile, and the distributed
// reader-writer lock.
//
// The algorithm bodies live in src/hlock/algo/{cna,hmcs,fissile,drwlock}.h,
// written once over the memory-backend concept and bound to native threads
// by NativeLock (src/hlock/native_lock.h).  CNA, HMCS-T and the drw lock take
// `procs_per_cluster` first (1 = every thread its own cluster, which degrades
// CNA to plain MCS and HMCS-T to a two-level MCS).  The unsuffixed aliases
// bind StdPlatform; the hcheck model checker instantiates the same code with
// hcheck::Platform (tests/hcheck/numa_locks_hcheck_test.cc).

#ifndef HLOCK_NUMA_LOCKS_H_
#define HLOCK_NUMA_LOCKS_H_

#include "src/hlock/algo/cna.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/fissile.h"
#include "src/hlock/algo/hmcs.h"
#include "src/hlock/native_lock.h"
#include "src/hlock/platform.h"
#include "src/hprof/lock_site.h"

namespace hlock {

// Compact NUMA-aware lock (Dice & Kogan): MCS acquire, cluster-preferring
// release with a starvation-bounded secondary queue of remote waiters.
// Constructed as (procs_per_cluster, max_streak).
template <class Platform = StdPlatform>
using BasicCnaLock = NativeLock<algo::CnaCore, Platform>;

// Hierarchical MCS with timeout (Chabbi, Fagan & Mellor-Crummey): one MCS
// level per cluster plus a global level; intra-cluster handoffs pass both.
// Constructed as (procs_per_cluster, threshold); try_lock_for is the timed
// acquire.
template <class Platform = StdPlatform>
using BasicHmcsTLock = NativeLock<algo::HmcsTCore, Platform>;

// Fissile lock: TAS fast path over an MCS slow path; unfair but with the
// cheapest uncontended acquire/release pair of the family.  Constructed as
// (fast_attempts).
template <class Platform = StdPlatform>
using BasicFissileLock = NativeLock<algo::FissileCore, Platform>;

// Distributed reader-writer lock: per-cluster padded reader counters (a
// reader entry/exit touches only its own cluster's line), writer flag +
// cluster sweep.  std::shared_mutex-shaped API plus try_upgrade()/downgrade()
// per the dgos rwspinlock shape.  Constructed as (procs_per_cluster,
// preference); `preference` picks who overtakes whom when readers and a
// writer collide (see algo::DrwPreference).
template <class Platform = StdPlatform>
class BasicDrwLock : public NativeLock<algo::DrwLockCore, Platform> {
  using Base = NativeLock<algo::DrwLockCore, Platform>;

 public:
  using Base::Base;

  void lock_shared() {
    typename Base::Backend::Ctx ctx = Base::Self();
    this->core_.AcquireShared(ctx).Get();
  }
  void unlock_shared() {
    typename Base::Backend::Ctx ctx = Base::Self();
    this->core_.ReleaseShared(ctx).Get();
  }
  bool try_lock_shared() {
    typename Base::Backend::Ctx ctx = Base::Self();
    return this->core_.TryAcquireShared(ctx).Get();
  }

  // Upgrades a shared hold to exclusive.  On false the shared hold is
  // *retained* -- the caller must unlock_shared() and take lock() from
  // scratch (two winners would deadlock on each other's read count, so this
  // can only be a try).  On true the shared hold has been consumed.
  bool try_upgrade() {
    typename Base::Backend::Ctx ctx = Base::Self();
    return this->core_.TryUpgrade(ctx).Get();
  }

  // Downgrades an exclusive hold to shared with no writer-sneak window.
  void downgrade() {
    typename Base::Backend::Ctx ctx = Base::Self();
    this->core_.Downgrade(ctx).Get();
  }

  // Attaches reader/writer profiling sites (null detaches); wait/hold
  // samples are host nanoseconds.  Not thread-safe against concurrent users.
  void set_sites(hprof::LockSiteStats* reader_site, hprof::LockSiteStats* writer_site) {
    this->core_.set_reader_site(reader_site);
    this->core_.set_site(writer_site);
  }
};

using CnaLock = BasicCnaLock<>;
using HmcsTLock = BasicHmcsTLock<>;
using FissileLock = BasicFissileLock<>;
using DrwLock = BasicDrwLock<>;

}  // namespace hlock

#endif  // HLOCK_NUMA_LOCKS_H_

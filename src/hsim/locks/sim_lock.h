// The simulated lock family of Figure 3 and its NUMA-aware successors.
//
// The kernel and the benchmark harnesses are parameterized over the
// coarse-grained lock kind through the SimLock interface.  Every algorithm
// body lives in src/hlock/algo/, written once over the memory-backend
// concept; SimCoreLock is the one adapter binding a core to SimBackend
// (costed Processor accesses, NUMA word homes, station-of-module cluster
// topology), so uncontended instruction counts match Figure 4 exactly -- see
// each core's header.  On HECTOR the cluster of a processor is its station:
// CNA's secondary queue parks off-station waiters, HMCS-T runs one local
// level per station, and the drw lock homes one reader counter per station.

#ifndef HSIM_LOCKS_SIM_LOCK_H_
#define HSIM_LOCKS_SIM_LOCK_H_

#include <memory>
#include <string>
#include <utility>

#include "src/hlock/algo/cna.h"
#include "src/hlock/algo/drwlock.h"
#include "src/hlock/algo/fissile.h"
#include "src/hlock/algo/hmcs.h"
#include "src/hlock/algo/mcs.h"
#include "src/hlock/algo/spin.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/locks/sim_backend.h"
#include "src/hsim/machine.h"
#include "src/hsim/task.h"
#include "src/hsim/types.h"

namespace hsim {

class SimLock {
 public:
  virtual ~SimLock() = default;

  // Acquires the lock on behalf of processor `p`, spinning as the algorithm
  // dictates.  Every instruction and memory access is charged to `p`.
  virtual Task<void> Acquire(Processor& p) = 0;

  // Releases the lock.  Must be called by the current holder.
  virtual Task<void> Release(Processor& p) = 0;

  virtual std::string name() const = 0;

  // Attaches a profiling site (null detaches).  Recording observes simulated
  // time but never advances it: a profiled run is tick-identical to an
  // unprofiled one.  Wait/hold samples are in ticks.
  virtual void set_site(hprof::LockSiteStats* site) = 0;
  virtual hprof::LockSiteStats* site() const = 0;
};

// One algorithm core on the simulated machine.  Constructed as (machine,
// home, core arguments after the core's own `home`); core-specific
// statistics are reached through core().
template <template <class> class CoreT>
class SimCoreLock : public SimLock {
 public:
  using Core = CoreT<SimBackend>;

  // `home` is the memory module holding the lock word(s); per-processor
  // queue nodes live on their processor's own module.
  template <class... Args>
  SimCoreLock(Machine* machine, ModuleId home, Args&&... args)
      : backend_(machine), core_(&backend_, home, std::forward<Args>(args)...) {}

  Task<void> Acquire(Processor& p) override { return core_.Acquire(p); }
  Task<void> Release(Processor& p) override { return core_.Release(p); }
  std::string name() const override { return core_.name(); }

  void set_site(hprof::LockSiteStats* site) override { core_.set_site(site); }
  hprof::LockSiteStats* site() const override { return core_.site(); }

  Core& core() { return core_; }
  const Core& core() const { return core_; }

 protected:
  SimBackend backend_;
  Core core_;
};

// The simulator spells the variant enum the same way the core does.
using McsVariant = hlock::algo::McsVariant;

// (machine, home, max_backoff[, name]): test-and-set with exponential
// backoff capped at `max_backoff` ticks (the paper evaluates 35 us and 2 ms).
using SimSpinLock = SimCoreLock<hlock::algo::SpinCore>;
// (machine, home, variant): MCS and the paper's H1/H2 (Figure 3a/3b).
using SimMcsLock = SimCoreLock<hlock::algo::McsCore>;
using SimCnaLock = SimCoreLock<hlock::algo::CnaCore>;
using SimHmcsTLock = SimCoreLock<hlock::algo::HmcsTCore>;
using SimFissileLock = SimCoreLock<hlock::algo::FissileCore>;

// Distributed RW lock over simulated NUMA memory: one padded reader counter
// per station, homed at that station, so an uncontended reader entry is a
// local CAS + one (remote) flag load.  The SimLock interface drives the
// *writer* side (RunLockStress races exclusive holders like any other kind);
// reader traffic goes through AcquireShared/ReleaseShared, which the RW
// stress harness calls directly.
class SimDrwLock : public SimCoreLock<hlock::algo::DrwLockCore> {
 public:
  using SimCoreLock::SimCoreLock;

  Task<void> AcquireShared(Processor& p) { return core_.AcquireShared(p); }
  Task<void> ReleaseShared(Processor& p) { return core_.ReleaseShared(p); }

  // SimLock's site profiles the writer side; reader holds are a different
  // histogram with their own site.
  void set_reader_site(hprof::LockSiteStats* site) { core_.set_reader_site(site); }
};

// Which coarse-grained lock algorithm a simulated kernel uses.
enum class LockKind {
  kSpin35us,   // exponential backoff capped at 35 us (the kernel's value)
  kSpin2ms,    // exponential backoff capped at 2 ms (optimal for the stress tests)
  kMcs,        // unmodified Mellor-Crummey & Scott
  kMcsH1,      // MCS + modification 1 (no qnode init on the acquire path)
  kMcsH2,      // H1 + modification 2 (no successor check in release)
  kCna,        // compact NUMA-aware MCS (secondary queue of remote waiters)
  kHmcsT,      // hierarchical MCS (per-station level) with timeout
  kFissile,    // fast-path TAS over an MCS slow path
  kDrw,        // distributed RW lock (per-station reader counters + sweep);
               // Acquire/Release drive the writer side, the reader side is
               // SimDrwLock's own AcquireShared/ReleaseShared
};

const char* LockKindName(LockKind kind);

// Central factory over LockKind: every harness that races the lock family
// (kernel coarse locks, stress drivers, benches, property tests) builds its
// lock here, so a new algorithm lands everywhere at once.
std::unique_ptr<SimLock> MakeSimLock(Machine* machine, LockKind kind, ModuleId home);

}  // namespace hsim

#endif  // HSIM_LOCKS_SIM_LOCK_H_

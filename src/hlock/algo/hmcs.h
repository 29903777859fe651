// HMCS-T: hierarchical MCS lock (one level per cluster, one global level)
// with timeout, written once over the memory backend.
//
// A caller first acquires its cluster's local MCS lock, then the global one;
// holding both means holding the lock (Chabbi, Fagan & Mellor-Crummey, PPoPP
// '15).  The NUMA win is in the release: up to `threshold` times in a row the
// holder passes BOTH locks to the next waiter on its own cluster in one
// intra-cluster handoff (`kGrantedInherit`), never touching the remote global
// lock word.  When the local queue drains -- or the streak hits the
// starvation bound -- the global lock is released and the next cluster runs.
//
// The timeout composes through both levels on one deadline (the -T part,
// after HMCS-T): a waiter that gives up at either level abandons its queue
// node for releasers to reclaim (see algo/timeout_mcs.h for the abandonment
// protocol).  A waiter that times out at the global level must first
// reacquire nothing -- it already holds its local lock -- but must hand that
// local lock on before failing, so a timed-out acquire never strands its
// cluster.
//
// Per-cluster streak words are holder-only state (like CNA's secondary
// queue), published to the next holder by the grant itself.  The
// global-level node handle is host state indexed by cluster: it is written
// by whichever caller acquired the global lock for the cluster and read by
// whichever same-cluster caller eventually releases it; the grant chain's
// release/acquire ordering carries it across the handoff.

#ifndef HLOCK_ALGO_HMCS_H_
#define HLOCK_ALGO_HMCS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hlock/algo/backend.h"
#include "src/hlock/algo/timeout_mcs.h"
#include "src/hlock/padded.h"
#include "src/hprof/lock_site.h"

namespace hlock::algo {

template <class B>
class HmcsTCore {
 public:
  using Ctx = typename B::Ctx;
  template <typename T>
  using TaskT = typename B::template TaskT<T>;
  using Level = TimeoutMcsCore<B>;

  // The algorithm reads the cluster map (see NativeLock).
  static constexpr bool kClustered = true;

  // Intra-cluster handoffs in a row before the global lock is cycled.
  static constexpr std::uint64_t kDefaultThreshold = 64;

  // `home` is the module holding the global lock word; each cluster's local
  // lock word is homed on the first processor of that cluster.
  // `broken_abandon` forwards the deliberate timeout bug to both levels (a
  // timed-out waiter orphans its node; hcheck catches the lost wakeup).
  HmcsTCore(B* b, std::uint32_t home, std::uint64_t threshold = kDefaultThreshold,
            bool broken_abandon = false)
      : b_(b), threshold_(threshold), name_("hmcs-t") {
    const std::uint32_t nclusters = b_->NumClusters();
    const std::uint32_t nctxs = b_->NumCtxs();
    global_ = std::make_unique<Level>(b, home, broken_abandon);
    locals_.reserve(nclusters);
    streak_ = std::make_unique<typename B::Word[]>(nclusters);
    global_node_ = std::make_unique<Padded<std::uint64_t>[]>(nclusters);
    for (std::uint32_t c = 0; c < nclusters; ++c) {
      // Home each cluster's lock word (and streak) on its first processor.
      std::uint32_t cluster_home = home;
      for (std::uint32_t id = 0; id < nctxs; ++id) {
        if (b_->ClusterOfCtx(id) == c) {
          cluster_home = b_->HomeOf(id);
          break;
        }
      }
      locals_.push_back(std::make_unique<Level>(b, cluster_home, broken_abandon));
      b_->InitWord(streak_[c], cluster_home, 0);
      global_node_[c].value = 0;
    }
    local_node_ = std::make_unique<Padded<std::uint64_t>[]>(nctxs);
  }
  HmcsTCore(const HmcsTCore&) = delete;
  HmcsTCore& operator=(const HmcsTCore&) = delete;

  // Acquires within `deadline`; returns false on timeout (no lock held, no
  // queue node left behind -- abandoned nodes are reclaimed by releasers).
  TaskT<bool> Acquire(Ctx& ctx, typename B::Deadline& deadline) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    typename B::Span span = b_->AcquireSpan(ctx, name_);
    hprof::LockProbe::Wait wait = probe_.Begin(Caller<B>{b_, ctx});

    typename Level::Grant local = co_await locals_[cluster]->Acquire(ctx, deadline);
    if (local.node == 0) {
      b_->EndSpan(ctx, span);
      co_return false;  // timed out in the local queue
    }
    local_node_[id].value = local.node;
    if (local.token == Level::kGrantedInherit) {
      // The previous same-cluster holder passed the global lock along with
      // the local one: the whole acquire was one intra-cluster handoff.
      Granted(wait, ctx, /*contended=*/true);
      b_->EndSpan(ctx, span);
      co_return true;
    }

    typename Level::Grant global = co_await global_->Acquire(ctx, deadline);
    if (global.node == 0) {
      // Timed out at the global level while holding the local lock: hand the
      // local lock on (plain grant -- the successor must fight for the
      // global lock itself) so the cluster is not stranded.
      co_await locals_[cluster]->ReleaseWithToken(ctx, local.node, Level::kGranted);
      b_->EndSpan(ctx, span);
      co_return false;
    }
    global_node_[cluster].value = global.node;
    co_await b_->Store(ctx, streak_[cluster], 0, std::memory_order_relaxed);
    Granted(wait, ctx, local.contended || global.contended);
    b_->EndSpan(ctx, span);
    co_return true;
  }

  // Untimed acquire: an infinite deadline never expires, so this is the
  // plain blocking HMCS algorithm.
  TaskT<void> Acquire(Ctx& ctx) {
    typename B::Deadline deadline = b_->MakeDeadline(ctx, kInfiniteBudget);
    co_await Acquire(ctx, deadline);
  }

  TaskT<void> Release(Ctx& ctx) {
    const std::uint32_t id = b_->CtxId(ctx);
    const std::uint32_t cluster = b_->ClusterOfCtx(id);
    std::uint64_t node = local_node_[id].value;
    probe_.Release(Caller<B>{b_, ctx});
    b_->ReleaseInstant(ctx, name_);

    const std::uint64_t streak =
        co_await b_->Load(ctx, streak_[cluster], std::memory_order_relaxed);
    co_await b_->Exec(ctx, 1, 1);
    if (streak + 1 < threshold_) {
      // Try the one-handoff fast path: pass local AND global to the next
      // same-cluster waiter.  The streak is bumped *before* the pass -- after
      // it the successor owns the lock (and the streak word) and a late
      // write would race with its release.
      co_await b_->Store(ctx, streak_[cluster], streak + 1, std::memory_order_relaxed);
      const std::uint64_t rest =
          co_await locals_[cluster]->TryPassLocal(ctx, node, Level::kGrantedInherit);
      if (rest == 0) {
        co_return;  // passed; the successor inherited the global lock
      }
      // Nobody (live) behind us in the local queue; we still hold both
      // locks.  The handle may have changed if abandoned nodes were adopted.
      node = rest;
    }
    // Cycle the global lock: the next cluster (or a late local waiter, via
    // the normal two-level acquire) runs.
    co_await b_->Store(ctx, streak_[cluster], 0, std::memory_order_relaxed);
    co_await global_->Release(ctx, global_node_[cluster].value);
    co_await locals_[cluster]->ReleaseWithToken(ctx, node, Level::kGranted);
  }

  std::uint64_t threshold() const { return threshold_; }
  const std::string& name() const { return name_; }
  Level& global_level() { return *global_; }
  Level& local_level(std::uint32_t cluster) { return *locals_[cluster]; }
  std::uint32_t num_levels() const { return static_cast<std::uint32_t>(locals_.size()) + 1; }
  std::uint64_t abandoned_nodes_reclaimed() const {
    std::uint64_t n = global_->abandoned_nodes_reclaimed();
    for (const std::unique_ptr<Level>& level : locals_) {
      n += level->abandoned_nodes_reclaimed();
    }
    return n;
  }

  // Attaches a profiling site (null detaches); recording is host-side only.
  // The wait/contention sample covers the whole two-level acquire; queue
  // residency is recorded as an instantaneous enqueue+leave at grant time
  // (per-level residency belongs to the level locks, not to this composite).
  void set_site(hprof::LockSiteStats* site) { probe_.set_site(site); }
  hprof::LockSiteStats* site() const { return probe_.site(); }

 private:
  void Granted(hprof::LockProbe::Wait& wait, Ctx& ctx, bool contended) {
    if (contended) {
      probe_.Queue(wait, Caller<B>{b_, ctx});
    }
    probe_.Grant(wait, Caller<B>{b_, ctx});
  }

  B* b_;
  std::uint64_t threshold_;
  std::string name_;
  std::unique_ptr<Level> global_;
  std::vector<std::unique_ptr<Level>> locals_;  // one per cluster
  std::unique_ptr<typename B::Word[]> streak_;  // holder-only, one per cluster
  // Host-side handles, carried across handoffs by the grant chain's ordering.
  std::unique_ptr<Padded<std::uint64_t>[]> global_node_;  // per cluster
  std::unique_ptr<Padded<std::uint64_t>[]> local_node_;   // per caller
  hprof::LockProbe probe_;
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_HMCS_H_

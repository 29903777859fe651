#include "src/hkernel/kernel.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/hsim/locks/reserve_bit.h"
#include "src/hsim/locks/sim_lock.h"

namespace hkernel {

using hsim::SimReserve;

std::string StormDiagnostic(std::uint32_t machine_id, hsim::ProcId src, hsim::ProcId target,
                            std::uint32_t target_cluster, RpcOp op, int consecutive) {
  return "rpc retry storm: op=" + std::string(RpcOpName(op)) + " machine=" +
         std::to_string(machine_id) + " dst_proc=" + std::to_string(target) + " dst_cluster=" +
         std::to_string(target_cluster) + " src_proc=" + std::to_string(src) +
         " consecutive_refusals=" + std::to_string(consecutive);
}

ClusterKernel::ClusterKernel(hsim::Machine* machine, const KernelConfig& config, std::uint32_t id,
                             std::vector<hsim::ProcId> procs, DescriptorArena* arena)
    : id_(id), procs_(std::move(procs)) {
  // The cluster's memory-manager heap -- the coarse lock, the hash bins and
  // the page descriptors -- lives together on the cluster's first module, as
  // a kernel heap allocation would place it.  This co-location is what makes
  // remote test-and-set spinning so destructive: retries to the lock word
  // queue ahead of the very chain walks the lock holder is performing,
  // "extending the length of its critical section" (Section 2.1).  The
  // descriptors themselves live in the shared arena, which homes this
  // cluster's ref range at the same module (see KernelSystem's ctor).
  const hsim::ModuleId lock_home = procs_.front();
  lock_ = hsim::MakeSimLock(machine, config.lock_kind, lock_home);
  table_ = std::make_unique<PageHashTable>(machine, std::vector<hsim::ModuleId>{lock_home},
                                           config.hash_bins, arena);
}

Program::Program(hsim::Machine* machine, const KernelConfig& config, std::uint32_t id,
                 std::uint32_t num_clusters, std::uint32_t nprocs)
    : id_(id) {
  replicas_.resize(num_clusters);
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    // Spread different programs' region structures across the cluster's
    // modules so that unrelated programs do not collide on one module.
    const std::uint32_t first = c * config.cluster_size;
    const hsim::ModuleId home =
        std::min(first + (id % config.cluster_size), nprocs - 1);
    replicas_[c].lock = hsim::MakeSimLock(machine, config.lock_kind, home);
    replicas_[c].words[0] = &machine->AllocWord(home, 0);
    replicas_[c].words[1] = &machine->AllocWord(home, 0);
  }
}

KernelSystem::KernelSystem(hsim::Machine* machine, const KernelConfig& config)
    : machine_(machine), config_(config) {
  const std::uint32_t nprocs = machine->num_processors();
  assert(config_.cluster_size >= 1 && config_.cluster_size <= nprocs);
  const std::uint32_t nclusters = config_.num_clusters(nprocs);
  // One machine-wide descriptor arena, clustered like the kernel: cluster c's
  // ref range (table_capacity descriptors) is homed at its first module, where
  // the old per-table pools lived.
  std::vector<std::vector<hsim::ModuleId>> cluster_modules;
  cluster_modules.reserve(nclusters);
  for (std::uint32_t c = 0; c < nclusters; ++c) {
    cluster_modules.push_back({static_cast<hsim::ModuleId>(c * config_.cluster_size)});
  }
  arena_ = std::make_unique<DescriptorArena>(machine, config_.cluster_size,
                                             config_.table_capacity,
                                             config_.desc_magazine_size,
                                             std::move(cluster_modules));
  for (std::uint32_t c = 0; c < nclusters; ++c) {
    std::vector<hsim::ProcId> procs;
    for (std::uint32_t i = 0; i < config_.cluster_size; ++i) {
      const hsim::ProcId p = c * config_.cluster_size + i;
      if (p < nprocs) {
        procs.push_back(p);
      }
    }
    clusters_.push_back(
        std::make_unique<ClusterKernel>(machine, config_, c, std::move(procs), arena_.get()));
  }
  cpus_.reserve(nprocs);
  pte_words_.resize(nprocs);
  for (hsim::ProcId p = 0; p < nprocs; ++p) {
    cpus_.push_back(std::make_unique<CpuKernel>(this, p, nprocs));
    pte_words_[p].push_back(&machine->AllocWord(p, 0));
    pte_words_[p].push_back(&machine->AllocWord(p, 0));
  }
}

hsim::Task<void> KernelSystem::ComputeInterruptible(hsim::Processor& p, hsim::Tick cycles) {
  // HURRICANE runs with interrupts enabled: long stretches of fault
  // processing (no coarse locks held) can be interrupted by RPC handlers.
  // Model that by taking interrupt points every `kSlice` cycles.
  constexpr hsim::Tick kSlice = 160;
  CpuKernel& k = cpu(p.id());
  while (cycles > 0) {
    const hsim::Tick step = std::min(cycles, kSlice);
    co_await p.Compute(step);
    cycles -= step;
    co_await k.IrqPoint(p);
  }
}

hsim::Task<void> KernelSystem::LockAcquire(hsim::Processor& p, hsim::SimLock& lock) {
  CpuKernel& k = cpu(p.id());
  // One lock path per processor: if another co-located context (e.g. a
  // handler run from an idle poll) is inside its acquire/hold/release window,
  // wait for it -- on real hardware the two could never overlap, and the
  // per-processor MCS queue nodes rely on that.
  while (k.lock_path_busy()) {
    co_await p.Compute(8);
  }
  k.set_lock_path_busy(true);
  // Close the software interrupt gate before queueing for the lock: an RPC
  // handler must never run on a processor that holds (or waits for) a coarse
  // lock it might itself need (Section 3.2).
  k.Mask();
  co_await p.Compute(config_.lock_admin_acquire);
  co_await lock.Acquire(p);
}

hsim::Task<void> KernelSystem::LockRelease(hsim::Processor& p, hsim::SimLock& lock) {
  CpuKernel& k = cpu(p.id());
  co_await lock.Release(p);
  co_await p.Compute(config_.lock_admin_release);
  k.Unmask();
  k.set_lock_path_busy(false);
  // Drain any work that arrived while the gate was closed.
  co_await k.IrqPoint(p);
}

hsim::Task<void> KernelSystem::WaitReserveFree(hsim::Processor& p, hsim::SimWord& reserve) {
  CpuKernel& k = cpu(p.id());
  hsim::Tick delay = 8;
  while (true) {
    const std::uint64_t state = co_await p.Load(reserve);
    co_await p.Exec(0, 1);
    if (state == SimReserve::kFree) {
      co_return;
    }
    // The gate is open while we spin: incoming RPCs are serviced, keeping the
    // processor available (it is itself a lockable resource).
    co_await k.IrqPoint(p);
    const hsim::Tick jittered = delay / 2 + p.rng().NextBelow(delay / 2 + 1);
    co_await p.BackoffDelay(jittered);
    delay = std::min(delay * 2, config_.reserve_backoff_cap);
  }
}

hsim::Task<void> KernelSystem::CallWithRetry(hsim::Processor& p, hsim::ProcId target,
                                             RpcRequest* request, int* retries) {
  CpuKernel& k = cpu(p.id());
  hsim::Tick delay = 64;
  int consecutive = 0;
  while (true) {
    co_await k.Call(p, target, request);
    if (request->status != RpcStatus::kWouldDeadlock) {
      co_return;
    }
    // Optimistic protocol: the remote side found a reserve bit held and
    // refused to wait.  Back off and retry until it succeeds.
    ++counters_.rpc_would_deadlock;
    if (retries != nullptr) {
      ++*retries;
    }
    // Retry-storm watchdog: a reserve bit held this long usually means its
    // holder is starved (e.g. livelocked behind our own retries).  Escalate
    // once per storm -- a counter bump plus a diagnostic naming the
    // destination machine/cluster/processor, so a mesh-wide log pins which
    // member is starving the caller.
    if (++consecutive == config_.rpc_storm_threshold) {
      ++counters_.rpc_retry_storms;
      const std::string diag =
          StormDiagnostic(config_.machine_id, p.id(), target, cluster_of_proc(target),
                          request->op, consecutive);
      std::fprintf(stderr, "[hkernel] %s\n", diag.c_str());
    }
    const hsim::Tick jittered = delay / 2 + p.rng().NextBelow(delay / 2 + 1);
    co_await p.BackoffDelay(jittered);
    delay = std::min(delay * 2, config_.rpc_retry_backoff);
  }
}

Program& KernelSystem::CreateProgram() {
  const std::uint32_t id = static_cast<std::uint32_t>(programs_.size());
  programs_.push_back(std::make_unique<Program>(machine_, config_, id, num_clusters(),
                                                machine_->num_processors()));
  Program& prog = *programs_.back();
  if (lock_profiler_ != nullptr) {
    for (std::uint32_t c = 0; c < num_clusters(); ++c) {
      prog.region_lock(c).set_site(&lock_profiler_->AddSite(
          "program" + std::to_string(id) + "/cluster" + std::to_string(c) + "/region",
          config_.cluster_size));
    }
  }
  return prog;
}

void KernelSystem::AttachLockProfiler(hprof::SiteTable* sites) {
  lock_profiler_ = sites;
  if (sites == nullptr) {
    return;
  }
  for (std::uint32_t c = 0; c < num_clusters(); ++c) {
    clusters_[c]->lock().set_site(
        &sites->AddSite("cluster" + std::to_string(c) + "/page-table", config_.cluster_size));
  }
  // The descriptor arena's depot lock is the allocator's only cross-cluster
  // serialization point; profile it like any other kernel lock so depot trips
  // show up with per-cluster handoff attribution.
  arena_->set_depot_site(&sites->AddSite("kernel/desc-depot", config_.cluster_size));
}

hsim::Task<void> KernelSystem::PageFault(hsim::Processor& p, Program& prog, std::uint64_t page,
                                         FaultOutcome* out) {
  const hsim::Tick t_start = p.now();
  hsim::Tick lock_cycles = 0;
  FaultOutcome outcome;
  ++counters_.faults;

  ClusterKernel& c = cluster_of(p);
  co_await p.Compute(config_.fault_entry);

  // --- 1. region (address-space) lookup, under the program's cluster-local
  // region-replica lock ---------------------------------------------------------
  hsim::SimLock& region_lock = prog.region_lock(c.id());
  {
    const hsim::Tick t0 = p.now();
    co_await LockAcquire(p, region_lock);
    lock_cycles += p.now() - t0;
  }
  co_await p.Load(prog.region_word(c.id(), 0));
  co_await p.Load(prog.region_word(c.id(), 1));
  {
    const hsim::Tick t0 = p.now();
    co_await LockRelease(p, region_lock);
    lock_cycles += p.now() - t0;
  }
  co_await ComputeInterruptible(p, config_.fault_prework);

  // --- 2. find the page descriptor and reserve it ---------------------------
  DescRef ref = kNilDesc;
  while (true) {
    {
      const hsim::Tick t0 = p.now();
      co_await LockAcquire(p, c.lock());
      lock_cycles += p.now() - t0;
    }
    ref = co_await c.table().Lookup(p, page);
    if (ref != kNilDesc) {
      const hsim::Tick t0 = p.now();
      const bool reserved = co_await SimReserve::TrySetExclusive(p, *c.table().desc(ref).reserve);
      lock_cycles += p.now() - t0;
      if (reserved) {
        const hsim::Tick t1 = p.now();
        co_await LockRelease(p, c.lock());
        lock_cycles += p.now() - t1;
        break;
      }
      // Reserved by another processor: drop the coarse lock, spin on the
      // reserve word with backoff, then search again (Figure 1b).
      {
        const hsim::Tick t1 = p.now();
        co_await LockRelease(p, c.lock());
        lock_cycles += p.now() - t1;
      }
      ++outcome.reserve_waits;
      ++counters_.reserve_waits;
      const hsim::Tick t2 = p.now();
      co_await WaitReserveFree(p, *c.table().desc(ref).reserve);
      lock_cycles += p.now() - t2;
      continue;
    }

    // Not present in this cluster.
    const std::uint32_t home = home_cluster_of(page);
    if (home == c.id()) {
      // Home first touch: establish the descriptor (the page is in core; the
      // descriptor is built from the core map).
      ref = co_await c.table().Insert(p, page);
      assert(ref != kNilDesc && "cluster descriptor pool exhausted");
      PageDescriptor& d = c.table().desc(ref);
      co_await p.Store(*d.flags, kFlagPresent | kFlagHome);
      for (hsim::SimWord* w : d.payload) {
        co_await p.Store(*w, page);
      }
      const bool reserved = co_await SimReserve::TrySetExclusive(p, *d.reserve);
      assert(reserved);
      (void)reserved;
      co_await LockRelease(p, c.lock());
      break;
    }

    if (config_.protocol == DeadlockProtocol::kPessimistic) {
      // Pessimistic protocol: hold *nothing* across the remote operation.
      {
        const hsim::Tick t0 = p.now();
        co_await LockRelease(p, c.lock());
        lock_cycles += p.now() - t0;
      }
      RpcRequest request;
      request.op = RpcOp::kGetPage;
      request.page = page;
      co_await CallWithRetry(p, PeerOf(p.id(), home), &request, &outcome.rpc_retries);
      assert(request.status == RpcStatus::kOk);

      // Re-establish state: with no reserved shell marking our fetch, the
      // table may have changed arbitrarily while we were away.
      {
        const hsim::Tick t0 = p.now();
        co_await LockAcquire(p, c.lock());
        lock_cycles += p.now() - t0;
      }
      ref = co_await c.table().Lookup(p, page);
      if (ref != kNilDesc) {
        // Someone else replicated meanwhile: our RPC was redundant.  Restart
        // the search loop to take the normal found path.
        ++counters_.redundant_rpcs;
        co_await LockRelease(p, c.lock());
        continue;
      }
      ref = co_await c.table().Insert(p, page);
      assert(ref != kNilDesc && "cluster descriptor pool exhausted");
      PageDescriptor& dd = c.table().desc(ref);
      for (std::uint32_t w = 0; w < KernelConfig::kPayloadWords; ++w) {
        co_await p.Store(*dd.payload[w], request.payload[w]);
      }
      co_await p.Store(*dd.flags, kFlagPresent);
      const bool res = co_await SimReserve::TrySetExclusive(p, *dd.reserve);
      assert(res);
      (void)res;
      co_await LockRelease(p, c.lock());
      outcome.replicated = true;
      ++counters_.replications;
      break;
    }

    // Optimistic protocol: create a local replica shell, exclusively
    // reserved, so cluster peers combine on it instead of issuing redundant
    // RPCs; then release all local locks and fetch the payload.
    ref = co_await c.table().Insert(p, page);
    assert(ref != kNilDesc && "cluster descriptor pool exhausted");
    PageDescriptor& d = c.table().desc(ref);
    const bool reserved = co_await SimReserve::TrySetExclusive(p, *d.reserve);
    assert(reserved);
    (void)reserved;
    {
      const hsim::Tick t0 = p.now();
      co_await LockRelease(p, c.lock());
      lock_cycles += p.now() - t0;
    }

    RpcRequest request;
    request.op = RpcOp::kGetPage;
    request.page = page;
    co_await CallWithRetry(p, PeerOf(p.id(), home), &request, &outcome.rpc_retries);
    assert(request.status == RpcStatus::kOk);

    for (std::uint32_t w = 0; w < KernelConfig::kPayloadWords; ++w) {
      co_await p.Store(*d.payload[w], request.payload[w]);
    }
    // Publish: only the reserve holder writes flags, so a plain store is safe.
    co_await p.Store(*d.flags, kFlagPresent);
    outcome.replicated = true;
    ++counters_.replications;
    break;
  }

  // --- 3. fault processing with the reserve bit held -------------------------
  PageDescriptor& d = c.table().desc(ref);
  co_await ComputeInterruptible(p, config_.fault_mapwork);
  co_await p.Store(*pte_words_[p.id()][0], page);
  co_await p.Store(*pte_words_[p.id()][1], 1);
  const std::uint64_t rc = co_await p.Load(*d.ref_count);
  co_await p.Store(*d.ref_count, rc + 1);
  {
    const hsim::Tick t0 = p.now();
    co_await SimReserve::ClearExclusive(p, *d.reserve);
    lock_cycles += p.now() - t0;
  }
  co_await p.Compute(config_.fault_exit);

  outcome.total = p.now() - t_start;
  outcome.lock_cycles = lock_cycles;
  if (out != nullptr) {
    *out = outcome;
  }
}

hsim::Task<void> KernelSystem::UnmapGlobal(hsim::Processor& p, std::uint64_t page) {
  ClusterKernel& c = cluster_of(p);
  const std::uint32_t home = home_cluster_of(page);
  assert(home == c.id() && "UnmapGlobal must run in the page's home cluster");
  ++counters_.unmaps;

  // Read the replica set under the home lock, then drop every local lock
  // before broadcasting: the pessimistic protocol (Section 2.5) is used for
  // updates that fan out to many clusters.
  co_await LockAcquire(p, c.lock());
  const DescRef ref = co_await c.table().Lookup(p, page);
  std::uint64_t mask = 0;
  if (ref != kNilDesc) {
    mask = co_await p.Load(*c.table().desc(ref).replicas);
    co_await p.Store(*c.table().desc(ref).replicas, 0);
    co_await p.Store(*c.table().desc(ref).ref_count, 0);
  }
  co_await LockRelease(p, c.lock());
  if (ref == kNilDesc) {
    co_return;
  }

  for (std::uint32_t k = 0; k < num_clusters(); ++k) {
    if (k == home || (mask & (1ULL << k)) == 0) {
      continue;
    }
    RpcRequest request;
    request.op = RpcOp::kInvalidate;
    request.page = page;
    co_await CallWithRetry(p, PeerOf(p.id(), k), &request, nullptr);
    ++counters_.invalidations;
  }
  // Clear the local page-table entries (TLB shootdown analogue).
  co_await p.Store(*pte_words_[p.id()][1], 0);
  co_await p.Compute(64);
}

hsim::Task<void> KernelSystem::GlobalUpdate(hsim::Processor& p, std::uint64_t page,
                                            std::uint64_t value) {
  ClusterKernel& c = cluster_of(p);
  const std::uint32_t home = home_cluster_of(page);
  assert(home == c.id() && "GlobalUpdate must run in the page's home cluster");

  // Update the home copy first (under lock + reserve), then broadcast.  The
  // local copy is unlocked before the broadcast starts: if a remote cluster
  // concurrently asks *us* to update, we must not hold our own copy locked
  // (Section 2.5, "Pessimistic vs. Optimistic").
  co_await LockAcquire(p, c.lock());
  const DescRef ref = co_await c.table().Lookup(p, page);
  std::uint64_t mask = 0;
  if (ref != kNilDesc) {
    mask = co_await p.Load(*c.table().desc(ref).replicas);
    co_await p.Store(*c.table().desc(ref).payload[0], value);
  }
  co_await LockRelease(p, c.lock());
  if (ref == kNilDesc) {
    co_return;
  }

  for (std::uint32_t k = 0; k < num_clusters(); ++k) {
    if (k == home || (mask & (1ULL << k)) == 0) {
      continue;
    }
    RpcRequest request;
    request.op = RpcOp::kGlobalUpdate;
    request.page = page;
    request.arg = value;
    co_await CallWithRetry(p, PeerOf(p.id(), k), &request, nullptr);
  }
}

hsim::Task<void> KernelSystem::NullRpc(hsim::Processor& p, std::uint32_t target_cluster) {
  RpcRequest request;
  request.op = RpcOp::kNull;
  co_await cpu(p.id()).Call(p, PeerOf(p.id(), target_cluster), &request);
}

hsim::Task<void> KernelSystem::IdleLoop(hsim::Processor& p, const bool* stop) {
  CpuKernel& k = cpu(p.id());
  while (!*stop) {
    co_await k.IrqPoint(p);
    co_await p.Compute(config_.idle_poll);
  }
}

hsim::Task<void> KernelSystem::HandleRpc(hsim::Processor& p, RpcRequest& request) {
  switch (request.op) {
    case RpcOp::kNull:
      request.status = RpcStatus::kOk;
      co_return;
    case RpcOp::kGetPage:
      co_await HandleGetPage(p, request);
      co_return;
    case RpcOp::kInvalidate:
      co_await HandleInvalidate(p, request);
      co_return;
    case RpcOp::kGlobalUpdate:
      co_await HandleGlobalUpdate(p, request);
      co_return;
    case RpcOp::kProcAddChild:
    case RpcOp::kProcUnlinkChild:
    case RpcOp::kProcDeposit:
      assert(aux_handler_ && "process RPC without a registered process manager");
      co_await aux_handler_(p, request);
      co_return;
  }
}

hsim::Task<void> KernelSystem::HandleGetPage(hsim::Processor& p, RpcRequest& request) {
  // Runs in the page's home cluster.  This is the "no-spin" version of the
  // lookup: if the descriptor is exclusively reserved, fail with
  // kWouldDeadlock instead of spinning -- the initiator retries (Section 2.3).
  ClusterKernel& c = cluster_of(p);
  co_await LockAcquire(p, c.lock());
  DescRef ref = co_await c.table().Lookup(p, request.page);
  if (ref == kNilDesc) {
    // Home first touch on behalf of a remote cluster: establish the
    // descriptor from the core map.
    ref = co_await c.table().Insert(p, request.page);
    assert(ref != kNilDesc && "home descriptor pool exhausted");
    PageDescriptor& d = c.table().desc(ref);
    co_await p.Store(*d.flags, kFlagPresent | kFlagHome);
    for (hsim::SimWord* w : d.payload) {
      co_await p.Store(*w, request.page);
    }
  }
  PageDescriptor& d = c.table().desc(ref);
  const bool readable = co_await SimReserve::TryAddReader(p, *d.reserve);
  if (!readable) {
    co_await LockRelease(p, c.lock());
    request.status = RpcStatus::kWouldDeadlock;
    co_return;
  }
  // Record the requester as a replica holder while we still hold the lock.
  const std::uint64_t mask = co_await p.Load(*d.replicas);
  co_await p.Store(*d.replicas, mask | (1ULL << request.src_cluster));
  co_await LockRelease(p, c.lock());

  // Copy the payload under the reader reservation only: multiple clusters can
  // replicate concurrently (the combining behaviour of Section 2.2).
  for (std::uint32_t w = 0; w < KernelConfig::kPayloadWords; ++w) {
    request.payload[w] = co_await p.Load(*d.payload[w]);
  }

  co_await LockAcquire(p, c.lock());
  co_await SimReserve::RemoveReader(p, *d.reserve);
  co_await LockRelease(p, c.lock());
  request.status = RpcStatus::kOk;
}

hsim::Task<void> KernelSystem::HandleInvalidate(hsim::Processor& p, RpcRequest& request) {
  // Runs in a replica-holding cluster.  No-spin: a reserve bit held by a
  // local fault in progress forces the unmapper to retry.
  ClusterKernel& c = cluster_of(p);
  co_await LockAcquire(p, c.lock());
  const DescRef ref = co_await c.table().Lookup(p, request.page);
  if (ref == kNilDesc) {
    co_await LockRelease(p, c.lock());
    request.status = RpcStatus::kOk;  // already gone
    co_return;
  }
  const std::uint64_t state = co_await SimReserve::Read(p, *c.table().desc(ref).reserve);
  if (state != SimReserve::kFree) {
    co_await LockRelease(p, c.lock());
    request.status = RpcStatus::kWouldDeadlock;
    co_return;
  }
  const bool removed = co_await c.table().Remove(p, request.page);
  assert(removed);
  (void)removed;
  co_await LockRelease(p, c.lock());
  // Local TLB shootdown cost.
  co_await p.Compute(64);
  request.status = RpcStatus::kOk;
}

hsim::Task<void> KernelSystem::HandleGlobalUpdate(hsim::Processor& p, RpcRequest& request) {
  ClusterKernel& c = cluster_of(p);
  co_await LockAcquire(p, c.lock());
  const DescRef ref = co_await c.table().Lookup(p, request.page);
  if (ref == kNilDesc) {
    co_await LockRelease(p, c.lock());
    request.status = RpcStatus::kOk;  // no replica here (raced with invalidation)
    co_return;
  }
  PageDescriptor& d = c.table().desc(ref);
  const std::uint64_t state = co_await SimReserve::Read(p, *d.reserve);
  if (state != SimReserve::kFree) {
    co_await LockRelease(p, c.lock());
    request.status = RpcStatus::kWouldDeadlock;
    co_return;
  }
  co_await p.Store(*d.payload[0], request.arg);
  co_await LockRelease(p, c.lock());
  request.status = RpcStatus::kOk;
}

}  // namespace hkernel

// Kernel configuration and calibration constants.
//
// The time constants below are calibrated so the simulated kernel matches the
// paper's absolute reference points on the 16 MHz machine:
//   - a simple soft page fault costs ~160 us, ~40 us of it locking overhead;
//   - a null RPC costs ~27 us;
//   - a cluster-wide page lookup plus descriptor replication costs ~88 us.
// (Section 1 and Section 4.2, footnote 6.)

#ifndef HKERNEL_CONFIG_H_
#define HKERNEL_CONFIG_H_

#include <cstdint>

#include "src/hsim/locks/sim_lock.h"
#include "src/hsim/types.h"

namespace hkernel {

using hsim::Tick;

// Cross-cluster deadlock-management protocol (Section 2.3).
enum class DeadlockProtocol {
  // Set reserve bits on everything needed after the call, drop the coarse
  // locks, RPC; the remote side fails (never spins) on a reserve bit and the
  // initiator retries.  State is re-established only when a retry happens.
  kOptimistic,
  // The paper's initial protocol: release *everything* (locks and reserve
  // bits) before the RPC and re-establish state afterwards -- re-searching
  // the table and handling the data having moved or vanished.  Simpler, but
  // pays the re-establishment cost every time and loses the combining effect
  // of the reserved local shell.
  kPessimistic,
};

struct KernelConfig {
  // --- structure -------------------------------------------------------------
  // Which machine of a multi-machine mesh this kernel instance runs on.
  // Purely diagnostic for a standalone kernel (defaults to 0); hmesh assigns
  // each member its mesh id so watchdog messages name the culprit machine.
  std::uint32_t machine_id = 0;
  std::uint32_t cluster_size = 16;  // processors per cluster (1..16)
  hsim::LockKind lock_kind = hsim::LockKind::kMcsH2;
  DeadlockProtocol protocol = DeadlockProtocol::kOptimistic;
  std::uint32_t hash_bins = 256;         // bins per per-cluster page hash table
  std::uint32_t table_capacity = 2048;   // descriptors per cluster pool
  // Rounds per descriptor-arena magazine (the halloc slab allocator that
  // replaced the per-table host free list).  Depot traffic scales with
  // alloc/free drift divided by this.
  std::uint32_t desc_magazine_size = 8;
  static constexpr std::uint32_t kPayloadWords = 8;  // descriptor payload copied on replication

  // --- locking ---------------------------------------------------------------
  // Backoff cap for reserve-bit spinning and RPC retries (the kernel's
  // internal 35 us value for a cluster of 4).
  Tick reserve_backoff_cap = hsim::UsToTicks(35);
  // Fixed bookkeeping executed around each coarse-lock acquire/release pair
  // (lock hierarchy checks, interrupt-gate manipulation, stack setup).  Three
  // lock sites per fault x (admin + lock latency) makes up the paper's ~40 us
  // of locking overhead per fault.
  Tick lock_admin_acquire = 140;
  Tick lock_admin_release = 100;

  // --- fault path ------------------------------------------------------------
  Tick fault_entry = 160;     // exception entry, translation, dispatch (10 us)
  Tick fault_prework = 320;   // region lookup work outside any reserve bit (20 us)
  Tick fault_mapwork = 1190;  // pte/mapping work while the reserve bit is held (~74 us)
  Tick fault_exit = 160;      // return from exception (10 us)

  // --- RPC -------------------------------------------------------------------
  Tick rpc_send = 112;       // marshal + raise remote interrupt
  Tick rpc_transit = 48;    // interconnect + interrupt delivery latency
  Tick rpc_dispatch = 96;    // handler entry at the target
  Tick rpc_reply = 80;       // reply marshal at the target
  Tick rpc_recv = 48;        // reply unmarshal at the initiator
  Tick rpc_poll = 16;       // initiator poll granularity while waiting
  // Maximum RPC handler invocations serviced per interrupt point; bounding
  // this keeps the interrupted kernel path live under a retry storm.
  int irq_batch = 2;
  // Backoff cap between retries of an RPC that failed with kWouldDeadlock.
  // Deliberately long: remote requesters have "a greater potential of being
  // starved" (Section 2.3) and hammering the target livelocks it.
  Tick rpc_retry_backoff = hsim::UsToTicks(320);
  // Retransmit timeout for a lost request or reply: far above the ~27 us
  // null-RPC round trip, so only calls stuck behind a busy target retransmit
  // spuriously (about 1% on the mixed fault test).  Successive timeouts of
  // one call follow hsim::RetransmitTimer (jittered doubling, capped at 16x).
  Tick rpc_timeout = hsim::UsToTicks(240);
  // CallWithRetry escalates to the rpc_retry_storms counter once a single
  // logical operation has been refused this many consecutive times.
  int rpc_storm_threshold = 16;

  // --- workload --------------------------------------------------------------
  Tick idle_poll = 24;  // idle-loop poll granularity (bounds RPC latency at idle)

  std::uint32_t num_clusters(std::uint32_t nprocs) const {
    return (nprocs + cluster_size - 1) / cluster_size;
  }
};

}  // namespace hkernel

#endif  // HKERNEL_CONFIG_H_

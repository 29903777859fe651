// Open-loop load driver for one mesh member.
//
// One client per machine replays an hload-planned op stream (zipfian keys,
// Poisson arrivals, read/write mix) against the mesh, with the mesh's
// machines standing where hload's clusters normally stand: the plan's
// num_clusters is the machine count, so key construction (rank * N + c) and
// the hot-rank head line up with the mesh's replication policy.
//
// Open-loop discipline: each op fires at its *scheduled* tick regardless of
// how earlier ops are faring, and latency is recorded against the scheduled
// instant -- a slow mesh cannot hide behind its own queueing (coordinated
// omission).  Every acked write is logged with the version the mesh
// assigned, which AuditAckedWrites checks against the mesh's apply ledger
// (exactly-once) and the surviving stores (zero lost ops).
//
// The bounded in-flight window is the only brake, and it is a memory brake:
// it caps the op tasks a client keeps alive.  It is not what keeps the mesh
// out of the lane deadlock (the two lane classes in mesh.h do that, at any
// window), and at the default of 8 it binds below the knee: on the default
// 4-machine mesh at 95/5 and 300k ops/s per machine the simulated p50 is
// 12.4 us with a window of 8 and 7.7 us with 12.  The default stays 8
// because the gated mesh_scaling series are measured at it.

#ifndef HMESH_CLIENT_H_
#define HMESH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hload/recorder.h"
#include "src/hload/workload.h"
#include "src/hmesh/mesh.h"

namespace hmesh {

struct ClientConfig {
  hload::WorkloadConfig workload;  // num_clusters must equal mesh machines
  std::uint64_t ops = 1000;
  double rate_per_s = 250'000;     // offered rate per machine
  std::uint32_t window = 8;        // max ops in flight per client (memory brake)
};

struct AckedWrite {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint64_t op_id = 0;
};

struct AuditViolation {
  enum class Kind : std::uint8_t { kNotExactOnce, kLostWrite } kind = Kind::kNotExactOnce;
  std::string what;
};

// Audits a drained mesh against the writes its clients saw acked.  kNotExactOnce:
// an acked op was not applied at exactly one version, the acked one.
// kLostWrite: a key's newest acked write is missing from its owner, or another
// policy holder stores the key at a different version or value.  Asserts
// nothing; returns every violation found.
std::vector<AuditViolation> AuditAckedWrites(const Mesh& mesh,
                                             const std::vector<AckedWrite>& acked);

struct ClientStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t failed = 0;  // ops abandoned because this machine died
  hload::LatencyRecorder latency;
  std::vector<AckedWrite> acked_writes;
  bool done = false;
};

// The op id a client on machine m assigns to its i-th planned op; unique
// mesh-wide (op id 0 is reserved for the preload).
inline std::uint64_t ClientOpId(std::uint32_t m, std::uint64_t index) {
  return (std::uint64_t{m} + 1) << 40 | index;
}

// Drives machine m's planned stream to completion (all ops acked or failed),
// then sets stats->done.  Runs on processor 1 of machine m; spawn on the
// mesh's engine.  `stats` must outlive the task.
hsim::Task<void> RunClient(Mesh* mesh, std::uint32_t m, const ClientConfig& config,
                           ClientStats* stats);

}  // namespace hmesh

#endif  // HMESH_CLIENT_H_

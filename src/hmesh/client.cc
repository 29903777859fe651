#include "src/hmesh/client.h"

#include <map>
#include <memory>

#include "src/hflight/flight.h"
#include "src/hsim/park.h"
#include "src/hsim/types.h"

namespace hmesh {

namespace {

inline Tick NsToTicks(std::uint64_t ns) { return ns * hsim::kCyclesPerMicrosecond / 1000; }

inline std::uint64_t TicksToNs(Tick ticks) {
  return ticks * 1000 / hsim::kCyclesPerMicrosecond;
}

struct OpContext {
  Mesh* mesh;
  std::uint32_t machine;
  ClientStats* stats;
  std::uint32_t in_flight = 0;
  hsim::ParkQueue op_done;  // RunClient, waiting on the window or the drain
};

// One planned op, start to ack.  Captureless coroutine lambda equivalents
// don't compose well across translation units, so this is a plain task.
hsim::Task<void> RunOp(std::shared_ptr<OpContext> ctx, hload::PlannedOp op, Tick scheduled,
                       std::uint64_t op_id) {
  Mesh* mesh = ctx->mesh;
  const std::uint32_t m = ctx->machine;
  hsim::Processor& p = mesh->machine(m).processor(1);
  hflight::FlightRecord* rec = nullptr;
  if (mesh->flight() != nullptr) {
    rec = mesh->flight()->Open(m, scheduled);
    rec->enqueue = scheduled;
    rec->start = p.now();
    rec->exec = p.now();
  }
  MeshStatus status;
  if (op.is_write) {
    std::uint64_t version = 0;
    // The written value is the op id: globally unique, so the zero-lost-ops
    // audit can match surviving store entries back to acked client writes.
    status = co_await mesh->ClientWrite(p, m, op.key, op_id, op_id, &version, rec);
    if (status == MeshStatus::kOk) {
      ++ctx->stats->writes;
      ctx->stats->acked_writes.push_back(AckedWrite{op.key, op_id, version, op_id});
    }
  } else {
    std::uint64_t value = 0;
    bool served_locally = false;
    status = co_await mesh->ClientRead(p, m, op.key, &value, &served_locally, rec);
    if (status == MeshStatus::kOk) {
      ++ctx->stats->reads;
      ++(served_locally ? ctx->stats->local_reads : ctx->stats->forwarded_reads);
    }
  }
  const Tick end = mesh->engine().now();
  if (rec != nullptr) {
    rec->done = end;
    mesh->flight()->Close(
        rec, status == MeshStatus::kOk ? hflight::Fate::kOk : hflight::Fate::kAbandoned,
        end);
  }
  if (status == MeshStatus::kOk) {
    ++ctx->stats->completed;
    ctx->stats->latency.Record(TicksToNs(end > scheduled ? end - scheduled : 0));
  } else {
    ++ctx->stats->failed;
  }
  --ctx->in_flight;
  ctx->op_done.WakeAll(mesh->engine());
}

}  // namespace

hsim::Task<void> RunClient(Mesh* mesh, std::uint32_t m, const ClientConfig& config,
                           ClientStats* stats) {
  const std::vector<hload::PlannedOp> plan =
      hload::PlanOps(config.workload, m, config.ops, config.rate_per_s);
  hsim::Processor& p = mesh->machine(m).processor(1);
  const Tick base = p.now();

  auto ctx = std::make_shared<OpContext>();
  ctx->mesh = mesh;
  ctx->machine = m;
  ctx->stats = stats;

  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    const Tick scheduled = base + NsToTicks(plan[i].at_ns);
    co_await mesh->engine().WaitUntil(scheduled);
    // The window is a memory brake, not a pacing device (see client.h).
    while (ctx->in_flight >= config.window) {
      co_await p.Park(ctx->op_done, 64);
    }
    ++stats->issued;
    ++ctx->in_flight;
    mesh->engine().Spawn(RunOp(ctx, plan[i], scheduled, ClientOpId(m, i)));
  }
  while (ctx->in_flight > 0) {
    co_await p.Park(ctx->op_done, 256);
  }
  stats->done = true;
}

std::vector<AuditViolation> AuditAckedWrites(const Mesh& mesh,
                                             const std::vector<AckedWrite>& acked) {
  std::vector<AuditViolation> violations;
  std::map<std::uint64_t, AckedWrite> newest;  // key -> highest acked version
  for (const AckedWrite& w : acked) {
    const auto it = mesh.op_versions().find(w.op_id);
    if (it == mesh.op_versions().end() || it->second != std::vector<std::uint64_t>{w.version}) {
      violations.push_back({AuditViolation::Kind::kNotExactOnce,
                            "op " + std::to_string(w.op_id) + " acked at version " +
                                std::to_string(w.version) +
                                " was not applied exactly once, at that version"});
    }
    auto [nit, inserted] = newest.emplace(w.key, w);
    if (!inserted && w.version > nit->second.version) {
      nit->second = w;
    }
  }
  for (const auto& [key, w] : newest) {
    const std::uint32_t owner = mesh.ring().OwnerOf(key);
    for (std::uint32_t m : mesh.HoldersOf(key)) {
      const Mesh::Entry* e = mesh.Lookup(m, key);
      if (e == nullptr ? m == owner : e->version != w.version || e->value != w.value) {
        violations.push_back({AuditViolation::Kind::kLostWrite,
                              "key " + std::to_string(key) + " on machine " + std::to_string(m) +
                                  " lacks its newest acked write, version " +
                                  std::to_string(w.version)});
      }
    }
  }
  return violations;
}

}  // namespace hmesh

#include "src/hkernel/rpc.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/hflight/flight.h"
#include "src/hkernel/kernel.h"
#include "src/hmetrics/trace.h"
#include "src/hsim/engine.h"

namespace hkernel {

namespace {

// Terminal fate of a flight record for an RPC leg.  kWouldDeadlock is the
// optimistic protocol's back-off signal -- the caller retries, so the leg
// itself ended in rejection, not error.
hflight::Fate FateOf(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return hflight::Fate::kOk;
    case RpcStatus::kNotFound:
      return hflight::Fate::kNotFound;
    case RpcStatus::kWouldDeadlock:
      return hflight::Fate::kRejected;
    case RpcStatus::kPending:
      break;
  }
  return hflight::Fate::kError;
}

// Transports a packet to the target processor after the interrupt-delivery
// latency.  Runs as a detached engine task; the packet travels by value, so
// duplicates and late copies have no lifetime tie to the initiator's frame.
hsim::Task<void> DeliverAfter(hsim::Engine* engine, hsim::Tick transit, CpuKernel* target,
                              RpcPacket packet) {
  co_await engine->Delay(transit);
  target->Deliver(packet);
}

}  // namespace

void CpuKernel::Unmask() {
  if (mask_depth_ <= 0) {
    std::fprintf(stderr,
                 "hkernel: unbalanced CpuKernel::Unmask on processor %u (mask depth %d); the "
                 "soft interrupt gate would stay open inside the next critical section\n",
                 id_, mask_depth_);
    std::abort();
  }
  --mask_depth_;
}

void CpuKernel::SendPacket(hsim::Processor& p, hsim::ProcId target, const RpcPacket& packet) {
  hsim::Machine& machine = system_->machine();
  hsim::Engine& engine = machine.engine();
  CpuKernel& dest = system_->cpu(target);
  const hsim::FaultPlan::Decision decision = hsim::RouteSend(
      machine.fault_plan(), packet, p.id(), target, p.now(), system_->config().rpc_transit,
      [&](hsim::Tick transit) { engine.Spawn(DeliverAfter(&engine, transit, &dest, packet)); });
  if (machine.trace_enabled(hmetrics::kTraceRpc) && (decision.drop || decision.duplicate)) {
    machine.trace()->Instant(hmetrics::kTraceRpc,
                             decision.drop ? "rpc/fault_drop" : "rpc/fault_dup", p.id(),
                             p.now());
  }
}

void CpuKernel::Deliver(const RpcPacket& packet) {
  if (!packet.is_reply) {
    inbox_.push_back(packet);
  } else if (!call_.Offer(packet)) {
    ++system_->counters().rpc_dup_replies;
  }
}

hsim::Task<void> CpuKernel::RunHandlers(hsim::Processor& p, std::deque<RpcPacket>* queue,
                                        int budget) {
  const KernelConfig& cfg = system_->config();
  hsim::Machine& machine = system_->machine();
  std::uint64_t batch = 0;
  while (!queue->empty() && budget-- > 0) {
    RpcPacket packet = queue->front();
    queue->pop_front();
    ++batch;

    hsim::DedupWindow<RpcPacket>& window = peers_[packet.src_proc];
    const hsim::Admission admission = window.Admit(packet.seq);
    if (admission != hsim::Admission::kFresh) {
      ++system_->counters().rpc_dup_requests;
      // Copied now: the window may complete a newer request during the awaits.
      const RpcPacket cached = window.cached_reply();
      co_await p.Compute(cfg.rpc_dispatch / 2);
      if (admission == hsim::Admission::kResendCached) {
        co_await p.Compute(cfg.rpc_reply);
        SendPacket(p, packet.src_proc, cached);
      }
      continue;
    }

    ++handled_;
    in_handler_ = true;
    hmetrics::TraceSession* tr =
        machine.trace_enabled(hmetrics::kTraceRpc) ? machine.trace() : nullptr;
    hmetrics::TraceSession::SpanId span = 0;
    if (tr != nullptr) {
      span = tr->BeginSpan(hmetrics::kTraceRpc, "rpc/handle", p.id(), p.now());
      tr->AddArg(span, "op", RpcOpName(packet.op));
    }
    // Causally linked child record (FlightRecorder::OpenLeg).  Only the first
    // execution opens one -- dedup hits above never get here.
    hflight::FlightRecorder* flight = system_->flight();
    hflight::FlightRecord* frec =
        flight != nullptr && packet.flight_id != 0
            ? flight->OpenLeg(system_->cluster_of_proc(id_), packet.flight_send,
                              packet.flight_id, p.now())
            : nullptr;
    RpcRequest request;
    request.op = packet.op;
    request.page = packet.page;
    request.arg = packet.arg;
    request.src_proc = packet.src_proc;
    request.src_cluster = packet.src_cluster;
    co_await p.Compute(cfg.rpc_dispatch);
    co_await system_->HandleRpc(p, request);
    co_await p.Compute(cfg.rpc_reply);
    in_handler_ = false;
    assert(request.status != RpcStatus::kPending);
    ++system_->counters().rpc_ops_applied;
    const RpcPacket reply{.is_reply = true, .seq = packet.seq, .op = packet.op,
                          .status = request.status, .payload = request.payload};
    window.Complete(packet.seq, reply);
    if (frec != nullptr) {
      frec->done = p.now();
      flight->Close(frec, FateOf(request.status), p.now());
    }
    if (tr != nullptr) {
      tr->EndSpan(span, p.now());
    }
    SendPacket(p, packet.src_proc, reply);
  }
  if (batch > 0 && system_->rpc_batch_depth_hist() != nullptr) {
    system_->rpc_batch_depth_hist()->Record(batch);
  }
}

hsim::Task<void> CpuKernel::IrqPoint(hsim::Processor& p) {
  if (in_handler_) {
    // Handlers are not re-entered; nested work waits for the outer handler.
    co_return;
  }
  if (masked()) {
    // The gate is closed: take the interrupts but defer the work, exactly as
    // the paper's per-processor work queue does.  The handler-entry cost is
    // paid now; the work itself runs when the gate opens.  The request is
    // popped *before* the await: co-located interrupt points interleave at
    // awaits, and two of them must never defer the same request.
    while (!inbox_.empty()) {
      RpcPacket packet = inbox_.front();
      inbox_.pop_front();
      co_await p.Compute(system_->config().rpc_dispatch / 2);
      deferred_.push_back(packet);
      ++deferred_total_;
    }
    co_return;
  }
  // Bound the work done per interrupt point: servicing at most a couple of
  // requests before returning control lets the interrupted kernel path make
  // progress even under a retry storm (otherwise a reserve-bit holder can be
  // livelocked into never clearing the bit the retries are waiting for).
  int budget = system_->config().irq_batch;
  if (!deferred_.empty()) {
    co_await RunHandlers(p, &deferred_, budget);
    budget = 0;
  }
  if (budget > 0 && !inbox_.empty()) {
    co_await RunHandlers(p, &inbox_, budget);
  }
}

hsim::Task<void> CpuKernel::Call(hsim::Processor& p, hsim::ProcId target, RpcRequest* request) {
  assert(!masked() && "RPCs must not be issued while holding coarse locks");
  assert(target != id_ && "RPC to self would deadlock");
  if (call_.busy()) {
    // The one-deep dedup window at the target depends on stop-and-wait.
    std::fprintf(stderr,
                 "hkernel: overlapping CpuKernel::Call on processor %u (seq %llu still "
                 "pending); the RPC protocol is stop-and-wait per processor\n",
                 id_, static_cast<unsigned long long>(call_.pending_seq()));
    std::abort();
  }
  const KernelConfig& cfg = system_->config();
  request->status = RpcStatus::kPending;
  request->src_proc = id_;
  request->src_cluster = system_->cluster_of_proc(id_);
  ++system_->counters().rpcs;

  RpcPacket packet{.seq = call_.Begin(), .op = request->op, .page = request->page,
                   .arg = request->arg, .src_proc = id_, .src_cluster = request->src_cluster};
  // Caller-side flight record: the whole Call is one rpc-phase leg (the
  // pre-send stamps collapse to begin, so Finalize attributes the full span
  // to rpc).  The id and send instant travel on the wire for the child link.
  hflight::FlightRecorder* flight = system_->flight();
  hflight::FlightRecord* frec = nullptr;
  std::uint64_t call_retransmits = 0;
  if (flight != nullptr) {
    frec = flight->OpenLeg(request->src_cluster, p.now(), 0, p.now());
    packet.flight_id = frec->id;
    packet.flight_send = p.now();
  }

  hsim::Machine& machine = system_->machine();
  hmetrics::TraceSession* tr =
      machine.trace_enabled(hmetrics::kTraceRpc) ? machine.trace() : nullptr;
  hmetrics::TraceSession::SpanId span = 0;
  if (tr != nullptr) {
    span = tr->BeginSpan(hmetrics::kTraceRpc, "rpc/call", p.id(), p.now());
    tr->AddArg(span, "op", RpcOpName(request->op));
    tr->AddArg(span, "target", std::to_string(target));
  }

  co_await p.Compute(cfg.rpc_send);
  SendPacket(p, target, packet);

  // Wait for the reply.  The processor itself is a schedulable resource: keep
  // servicing our own incoming requests, otherwise two processors calling
  // each other deadlock (Section 2.3).
  hsim::RetransmitTimer timer(cfg.rpc_timeout);
  timer.Arm(p.now());
  while (!call_.ready()) {
    co_await IrqPoint(p);
    co_await p.Compute(cfg.rpc_poll);
    if (!call_.ready() && timer.Expired(p.now())) {
      ++system_->counters().rpc_retransmits;
      ++call_retransmits;
      if (tr != nullptr) {
        hmetrics::TraceSession::SpanId rspan =
            tr->BeginSpan(hmetrics::kTraceRpc, "rpc/retransmit", p.id(), p.now());
        tr->AddArg(rspan, "op", RpcOpName(request->op));
        tr->AddArg(rspan, "seq", std::to_string(packet.seq));
        tr->EndSpan(rspan, p.now() + cfg.rpc_send);
      }
      timer.Backoff(p.rng());
      co_await p.Compute(cfg.rpc_send);
      SendPacket(p, target, packet);
      timer.Arm(p.now());
    }
  }
  request->status = call_.reply().status;
  request->payload = call_.reply().payload;
  call_.Reset();
  co_await p.Compute(cfg.rpc_recv);
  assert(request->status != RpcStatus::kPending);
  if (frec != nullptr) {
    frec->AddRpc(p.now() - frec->begin, call_retransmits);
    frec->done = p.now();
    flight->Close(frec, FateOf(request->status), p.now());
  }
  if (tr != nullptr) {
    tr->EndSpan(span, p.now());
  }
}

}  // namespace hkernel

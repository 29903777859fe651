// Exact-once RPC over an adversarial transport: the pieces shared by every
// simulated transport (hkernel's inter-processor RPC, hmesh's inter-machine
// calls).  A FaultPlan may drop, duplicate or delay any request or reply leg;
// on top of it a caller sees each call applied exactly once:
//
//   - an initiator endpoint (CallSlot) numbers its calls from a counter that
//     lives as long as the endpoint, and runs stop-and-wait: one call open at
//     a time, retransmitted verbatim (same sequence number) whenever its
//     RetransmitTimer expires;
//   - the target keeps, per initiator endpoint, a one-deep DedupWindow: the
//     last completed sequence number with its cached reply, and the one in
//     progress.  A retransmit of the request being executed is discarded; a
//     retransmit of the last completed one resends the cached reply (the
//     initiator is still waiting iff the original reply was lost); anything
//     older is discarded;
//   - at the initiator a reply is accepted only for the open call and only
//     once; stale replies (an earlier call's, or a duplicate) are discarded.
//
// Stop-and-wait per endpoint is what makes the one-deep window sound: the
// target can never receive sequence number n+1 from an endpoint before that
// endpoint has observed the reply to n, so by then nobody can still need the
// reply to n-1.  Keeping the counter across an endpoint reset keeps the
// argument intact across crashes: a reply from before the reset never
// matches a later call.
//
// These types never await and charge no simulated time.  Costs, wait loops,
// lanes and counters belong to the callers.

#ifndef HSIM_EXACT_ONCE_H_
#define HSIM_EXACT_ONCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/hsim/fault.h"

namespace hsim {

enum class Admission : std::uint8_t {
  kFresh,         // execute it, then Complete()
  kResendCached,  // retransmit of the last completed request: resend its reply
  kDiscard,       // retransmit of the request in progress, or an older one
};

// Receiver side: one per initiator endpoint.  Packet needs only to be
// copyable; the window stores the reply to the last completed request.
template <typename Packet>
class DedupWindow {
 public:
  Admission Admit(std::uint64_t seq) {
    if (seq == in_progress_ || seq <= last_completed_) {
      return seq == last_completed_ ? Admission::kResendCached : Admission::kDiscard;
    }
    in_progress_ = seq;
    return Admission::kFresh;
  }

  // Completions can land out of order (a slow handler for n finishing after
  // n+1 was admitted); an older one neither moves the mark back nor replaces
  // the newer cached reply, so a retransmit of n+1 still gets its reply.
  void Complete(std::uint64_t seq, Packet reply) {
    if (in_progress_ == seq) {
      in_progress_ = 0;
    }
    if (seq <= last_completed_) {
      return;
    }
    last_completed_ = seq;
    cached_reply_ = std::move(reply);
  }

  const Packet& cached_reply() const { return cached_reply_; }

 private:
  std::uint64_t last_completed_ = 0;  // sequence numbers start at 1
  std::uint64_t in_progress_ = 0;
  Packet cached_reply_{};
};

// Initiator side: one stop-and-wait endpoint.  Packet must carry `seq`.
template <typename Packet>
class CallSlot {
 public:
  bool busy() const { return busy_; }
  bool ready() const { return ready_; }
  std::uint64_t pending_seq() const { return pending_seq_; }
  Packet& reply() { return reply_; }

  // Opens a call and returns its sequence number.
  std::uint64_t Begin() {
    busy_ = true;
    ready_ = false;
    pending_seq_ = ++next_seq_;
    return pending_seq_;
  }

  // Accepts the first reply to the open call; false for a stale or
  // duplicate reply, which the caller counts and drops.
  bool Offer(const Packet& reply) {
    if (!busy_ || ready_ || reply.seq != pending_seq_) {
      return false;
    }
    reply_ = reply;
    ready_ = true;
    return true;
  }

  // Closes the slot (the call finished or was abandoned) but keeps the
  // sequence counter.
  void Reset() {
    busy_ = false;
    ready_ = false;
  }

 private:
  bool busy_ = false;
  bool ready_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pending_seq_ = 0;
  Packet reply_{};
};

// Jittered doubling retransmit schedule, capped at kCapFactor x the base
// timeout.  Per timeout: Backoff() (one rng draw, before the resend cost so
// synchronized losers diverge), resend, then Arm() at the send instant.
class RetransmitTimer {
 public:
  static constexpr Tick kCapFactor = 16;

  explicit RetransmitTimer(Tick base) : timeout_(base), cap_(base * kCapFactor) {}

  Tick timeout() const { return timeout_; }
  Tick deadline() const { return deadline_; }
  void Arm(Tick now) { deadline_ = now + timeout_; }
  bool Expired(Tick now) const { return now >= deadline_; }

  // t = min(2t + U[0, t/4], cap).
  void Backoff(Rng& rng) {
    const Tick jitter = rng.NextBelow(timeout_ / 4 + 1);
    timeout_ = std::min(timeout_ * 2 + jitter, cap_);
  }

 private:
  Tick timeout_;
  Tick cap_;
  Tick deadline_ = 0;
};

// Puts one send on the wire through `plan` (nullptr: a perfect wire).
// Calls launch(transit) zero times (dropped), once, or twice (duplicated),
// with each copy's extra delay added, and returns the plan's decision.
template <typename Packet, typename Launch>
FaultPlan::Decision RouteSend(FaultPlan* plan, const Packet& packet, std::uint32_t src,
                              std::uint32_t dst, Tick now, Tick transit, Launch&& launch) {
  FaultPlan::Decision decision;
  if (plan != nullptr) {
    decision = plan->Decide(packet.is_reply ? FaultLeg::kReply : FaultLeg::kRequest, src, dst,
                            static_cast<std::uint8_t>(packet.op), now);
  }
  if (decision.drop) {
    return decision;
  }
  launch(transit + decision.extra_delay);
  if (decision.duplicate) {
    launch(transit + decision.dup_extra_delay);
  }
  return decision;
}

}  // namespace hsim

#endif  // HSIM_EXACT_ONCE_H_

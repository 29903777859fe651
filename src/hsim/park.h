// Poll-grid park: a condition wait that queues no event while it waits.
//
// Simulated code that waits for a condition another task will change could
// poll it -- re-check, BackoffDelay(period), re-check -- at one engine event
// and one coroutine frame per poll, most of which find nothing changed.  A
// park keeps the poll loop's timing without its events.  The waiter links
// itself into the ParkQueue of whoever owns the condition and suspends with
// nothing queued.  The owner wakes the queue when the condition may have
// changed, and the waiter resumes at the first tick of its own poll grid at
// or after the wake:
//
//   grid = { origin + k * period : k >= 1 },  origin = the instant it parked
//
// which is exactly the poll at which the loop would have seen the change.  A
// park with a deadline also resumes, unwoken, at the first grid tick at or
// after the deadline (a retransmit timer checked at each poll).  Either way
// the whole wait is charged to the processor's idle cycles, as the polls
// were.
//
// Waking.  WakeAll resumes every waiter: for changes each of them can act on
// (a reply, a non-empty inbox, a fence).  WakeFirst resumes only the waiter
// whose next grid tick comes first, the earlier parker on a tie: for one
// freed unit of a resource (a lane, a key), it is the waiter the polling race
// would have handed that unit to, and the others stay parked at no cost.  A
// resumed waiter always re-checks its condition and may park again; a wake
// with nothing parked is a no-op.
//
// A parked waiter's only engine event is its deadline, if it has one; an
// early wake cancels it (Engine::Cancel), so a stale deadline never resumes
// the coroutine.  A deadline-free park leaves the engine's queue untouched,
// so an engine whose tasks are all parked reads as drained.

#ifndef HSIM_PARK_H_
#define HSIM_PARK_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <limits>

#include "src/hsim/engine.h"
#include "src/hsim/types.h"

namespace hsim {

inline constexpr Tick kNoDeadline = std::numeric_limits<Tick>::max();

class ParkAwaiter;

// The waiters parked on one condition, in park order.  Waiters point back at
// their queue, so a queue must outlive its parked waiters and never moves.
class ParkQueue {
 public:
  ParkQueue() = default;
  ParkQueue(const ParkQueue&) = delete;
  ParkQueue& operator=(const ParkQueue&) = delete;

  bool empty() const { return head_ == nullptr; }

  void WakeAll(Engine& engine);
  // Wakes the waiter with the earliest next grid tick; false if none.
  bool WakeFirst(Engine& engine);

 private:
  friend class ParkAwaiter;

  void Link(ParkAwaiter* waiter);
  void Unlink(ParkAwaiter* waiter);
  // Unlinks `waiter` and schedules it at its first grid tick at or after now.
  void Wake(Engine& engine, ParkAwaiter* waiter);

  ParkAwaiter* head_ = nullptr;
  ParkAwaiter* tail_ = nullptr;
};

// co_await target: parks on `queue` until woken or the deadline's grid tick.
// Created by Processor::Park; while suspended it lives in the waiter's
// coroutine frame and is linked into the queue.
class ParkAwaiter {
 public:
  ParkAwaiter(Engine* engine, ParkQueue* queue, Tick period, Tick deadline,
              std::uint64_t* idle_cycles)
      : engine_(engine),
        queue_(queue),
        period_(period),
        deadline_(deadline),
        idle_cycles_(idle_cycles) {}

  bool await_ready() const noexcept { return false; }

  void await_suspend(std::coroutine_handle<> handle) {
    assert(period_ > 0 && "a poll grid needs a period");
    handle_ = handle;
    origin_ = engine_->now();
    queue_->Link(this);
    if (deadline_ != kNoDeadline) {
      deadline_ticket_ = engine_->ScheduleCancellable(NextGridTick(deadline_), handle);
    }
  }

  void await_resume() {
    if (linked_) {
      queue_->Unlink(this);  // the deadline fired before any wake
    }
    *idle_cycles_ += engine_->now() - origin_;
  }

 private:
  friend class ParkQueue;

  // First grid tick at or after `t`.
  Tick NextGridTick(Tick t) const {
    if (t <= origin_) {
      return origin_ + period_;
    }
    return origin_ + (t - origin_ + period_ - 1) / period_ * period_;
  }

  Engine* engine_;
  ParkQueue* queue_;
  Tick period_;
  Tick deadline_;
  std::uint64_t* idle_cycles_;
  std::coroutine_handle<> handle_;
  Tick origin_ = 0;
  std::uint64_t deadline_ticket_ = 0;  // 0: no deadline event queued
  bool linked_ = false;
  ParkAwaiter* prev_ = nullptr;
  ParkAwaiter* next_ = nullptr;
};

inline void ParkQueue::WakeAll(Engine& engine) {
  while (head_ != nullptr) {
    Wake(engine, head_);
  }
}

inline bool ParkQueue::WakeFirst(Engine& engine) {
  ParkAwaiter* first = head_;
  if (first == nullptr) {
    return false;
  }
  Tick first_at = first->NextGridTick(engine.now());
  for (ParkAwaiter* w = first->next_; w != nullptr; w = w->next_) {
    const Tick at = w->NextGridTick(engine.now());
    if (at < first_at) {
      first = w;
      first_at = at;
    }
  }
  Wake(engine, first);
  return true;
}

inline void ParkQueue::Link(ParkAwaiter* waiter) {
  waiter->linked_ = true;
  waiter->prev_ = tail_;
  waiter->next_ = nullptr;
  (tail_ != nullptr ? tail_->next_ : head_) = waiter;
  tail_ = waiter;
}

inline void ParkQueue::Unlink(ParkAwaiter* waiter) {
  (waiter->prev_ != nullptr ? waiter->prev_->next_ : head_) = waiter->next_;
  (waiter->next_ != nullptr ? waiter->next_->prev_ : tail_) = waiter->prev_;
  waiter->linked_ = false;
}

inline void ParkQueue::Wake(Engine& engine, ParkAwaiter* waiter) {
  Unlink(waiter);
  if (waiter->deadline_ticket_ != 0) {
    engine.Cancel(waiter->deadline_ticket_);
  }
  engine.ScheduleAt(waiter->NextGridTick(engine.now()), waiter->handle_);
}

}  // namespace hsim

#endif  // HSIM_PARK_H_
